"""The deployment pipeline: select, featurize, route, fuse, rank.

Selection runs first, for every query of a dataset in one batch
(``selector.select_all``); ``route`` takes a query's selection.

Per query the pipeline picks one of two actions. Q ranks the candidate
pool by the question embedding alone; Union ranks by the convex
combination (1 - alpha) * s_q + alpha * s_brel, where s_brel scores the
selected relation sentence embedded in query mode. The router is a
linear model over RouterFeatures; Union is taken iff its probability
meets the threshold tau (boundary inclusive).

Self-supervised router labels need no human input: label 1 iff Union
hits recall@k and Q misses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import Dataset, Passage, Query
from .embedding_store import VectorStore, passage_key, question_key, text_key
from .linear_model import LinearModel, predict_proba
from .selector import SelectionResult, select, select_all
from .text_analysis import Lexicons, RouterFeatures, router_features

ACTION_Q = "Q"
ACTION_UNION = "Union"

ALPHA_MODE_FROZEN = "frozen"
ALPHA_MODE_P_WEIGHTED = "p_weighted"
LABEL_MODE_STRICT = "strict"
LABEL_MODE_RANK_GAIN = "rank_gain"


@dataclass(frozen=True)
class RoutingConfig:
    tau: float = 0.5
    alpha: float = 0.25
    alpha_mode: str = ALPHA_MODE_FROZEN
    k: int = 5
    label_mode: str = LABEL_MODE_STRICT

    def __post_init__(self) -> None:
        if not (0.0 <= self.alpha <= 1.0):
            raise ValueError("alpha must lie in [0, 1]")
        if not (0.0 <= self.tau <= 1.0):
            raise ValueError("tau must lie in [0, 1]")
        if self.alpha_mode not in (ALPHA_MODE_FROZEN, ALPHA_MODE_P_WEIGHTED):
            raise ValueError(f"unknown alpha_mode {self.alpha_mode!r}")
        if self.label_mode not in (LABEL_MODE_STRICT, LABEL_MODE_RANK_GAIN):
            raise ValueError(f"unknown label_mode {self.label_mode!r}")
        if self.k < 1:
            raise ValueError("k must be >= 1")


@dataclass(frozen=True)
class RoutingDecision:
    action: str
    p_union: float
    alpha_used: float
    b_rel: str = ""
    features: RouterFeatures | None = None
    fallback: bool = False  # selector abstained; action forced to Q, p_union 0


@dataclass(frozen=True)
class RankedList:
    entries: tuple[tuple[str, float], ...]  # (candidate id, score), best first
    k: int

    def rank_of(self, candidate_id: str) -> int | None:
        """1-based rank, or None when the candidate is not in the pool."""
        for i, (cid, _) in enumerate(self.entries):
            if cid == candidate_id:
                return i + 1
        return None


def clip_alpha(p_union: float) -> float:
    """The probability-weighted alpha rule: clip(p x 0.5, 0.1, 0.5)."""
    return min(max(p_union * 0.5, 0.1), 0.5)


def fusion_alpha(p_union: float, cfg: RoutingConfig) -> float:
    """The alpha that Union fuses with under ``cfg.alpha_mode``."""
    return clip_alpha(p_union) if cfg.alpha_mode == ALPHA_MODE_P_WEIGHTED else cfg.alpha


def fuse_scores(q_scores, brel_scores, alpha: float) -> np.ndarray:
    """Element-wise convex combination of aligned score lists."""
    q = np.asarray(q_scores, dtype=float)
    b = np.asarray(brel_scores, dtype=float)
    if q.shape != b.shape:
        raise ValueError(f"length mismatch: {q.shape} vs {b.shape}")
    if not (np.all(np.isfinite(q)) and np.all(np.isfinite(b))):
        raise ValueError("scores must be finite")
    if not (0.0 <= alpha <= 1.0):
        raise ValueError("alpha must lie in [0, 1]")
    return (1.0 - alpha) * q + alpha * b


def route(
    q: Query,
    bridge: Passage,
    selection: SelectionResult,
    router_model: LinearModel,
    cfg: RoutingConfig | None = None,
    lex: Lexicons | None = None,
) -> RoutingDecision:
    """Extract features from the query's selection and pick the action."""
    cfg = cfg or RoutingConfig()
    if selection.abstained:
        # Nothing to fuse with: forced Q, recorded as a fallback.
        feats = router_features(q.question, "", bridge.body, lex)
        return RoutingDecision(
            action=ACTION_Q,
            p_union=0.0,
            alpha_used=cfg.alpha,
            b_rel="",
            features=feats,
            fallback=True,
        )
    b_rel = selection.chosen[0]
    feats = router_features(q.question, b_rel, bridge.body, lex)
    p_union = predict_proba(router_model, feats.as_vector())
    action = ACTION_UNION if p_union >= cfg.tau else ACTION_Q
    return RoutingDecision(
        action=action,
        p_union=p_union,
        alpha_used=fusion_alpha(p_union, cfg),
        b_rel=b_rel,
        features=feats,
    )


def rank_scores(pool_ids, scores: np.ndarray, k: int) -> RankedList:
    """Rank pool passages by their aligned scores; ties go to the lower id."""
    order = sorted(zip(pool_ids, scores.tolist()), key=lambda item: (-item[1], item[0]))
    return RankedList(entries=tuple(order), k=k)


def rank_pool(
    store: VectorStore,
    query_side_id: str,
    pool_ids,
    k: int,
    brel_side_id: str | None = None,
    alpha: float = 0.0,
) -> RankedList:
    """Rank pool passages; fused scoring when a relation-side id is given."""
    candidate_keys = [passage_key(pid) for pid in pool_ids]
    scores = store.score(query_side_id, "query", candidate_keys)
    if brel_side_id is not None:
        brel_scores = store.score(brel_side_id, "query", candidate_keys)
        scores = fuse_scores(scores, brel_scores, alpha)
    return rank_scores(pool_ids, scores, k)


def recall_at_k(ranked: RankedList, gold_id: str, k: int = 5) -> bool:
    return any(cid == gold_id for cid, _ in ranked.entries[:k])


def self_supervised_label(
    q: Query,
    store: VectorStore,
    selector_model: LinearModel,
    alpha: float = 0.25,
    k: int = 5,
    label_mode: str = LABEL_MODE_STRICT,
    lex: Lexicons | None = None,
    bridge: Passage | None = None,
    selection: SelectionResult | None = None,
) -> int:
    """1 iff Union strictly improves over Q on this query, else 0.

    Strict mode compares recall@k (Union hits AND Q misses); rank_gain
    mode compares the gold passage's rank instead. Pass a precomputed
    selection to skip re-running the selector.
    """
    if selection is None:
        if bridge is None:
            raise ValueError("bridge passage (or a precomputed selection) required")
        selection = select(bridge, q.question, selector_model, lex=lex)
    ranked_q = rank_pool(store, question_key(q.id), q.pool_ids, k)
    if selection.abstained:
        return 0
    ranked_u = rank_pool(
        store,
        question_key(q.id),
        q.pool_ids,
        k,
        brel_side_id=text_key(selection.chosen[0]),
        alpha=alpha,
    )
    if label_mode == LABEL_MODE_RANK_GAIN:
        rq = ranked_q.rank_of(q.gold_id)
        ru = ranked_u.rank_of(q.gold_id)
        if ru is None:
            return 0
        return int(rq is None or ru < rq)
    hit_q = recall_at_k(ranked_q, q.gold_id, k)
    hit_u = recall_at_k(ranked_u, q.gold_id, k)
    return int(hit_u and not hit_q)


def build_router_training(
    ds: Dataset,
    store: VectorStore,
    selector_model: LinearModel,
    cfg: RoutingConfig | None = None,
    lex: Lexicons | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Router feature matrix and self-supervised labels, in dataset order."""
    cfg = cfg or RoutingConfig()
    pairs = [(ds.passage(q.bridge_id), q.question) for q in ds.queries]
    selections = select_all(pairs, selector_model, lex=lex)
    rows: list[list[float]] = []
    labels: list[int] = []
    for q, selection in zip(ds.queries, selections):
        b_rel = "" if selection.abstained else selection.chosen[0]
        feats = router_features(q.question, b_rel, ds.passage(q.bridge_id).body, lex)
        rows.append(feats.as_vector())
        labels.append(
            self_supervised_label(
                q,
                store,
                selector_model,
                alpha=cfg.alpha,
                k=cfg.k,
                label_mode=cfg.label_mode,
                lex=lex,
                selection=selection,
            )
        )
    return np.asarray(rows, dtype=float), np.asarray(labels, dtype=float)

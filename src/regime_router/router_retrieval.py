"""The deployment pipeline: select, featurize, route, fuse, rank.

``analyze`` is the one pass over a dataset's queries that every protocol
reduces: one selection batch, which splits and profiles each distinct
bridge body and question once (``train`` shares its profiles with
selector training), each query's relation sentence B_rel, its
row of router features read from those profiles, the run's
``PoolIndex``, and one (queries x pool) score matrix per side.

Per query the pipeline picks one of two actions. Q ranks the candidate
pool by the question embedding alone; Union ranks by the convex
combination (1 - alpha) * s_q + alpha * s_brel, where s_brel scores the
selected relation sentence embedded in query mode. The router is a
linear model over the five router features; ``route`` scores a whole
feature matrix in one predict call and takes Union for each row whose
probability meets the threshold tau (boundary inclusive).

Gold ranks, hits, margins and AUCs are whole-matrix reductions of the
score matrices; ``rank_pool`` ranks one pool the plain way.

Self-supervised router labels need no human input: label 1 iff Union
at ``cfg.alpha`` hits recall@k and Q misses, the paper's one label rule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import Dataset
from .embedding_store import MODE_DOC, MODE_QUERY, VectorStore, passage_key, question_key, score_rows, text_key
from .linear_model import LinearModel, predict_proba
from .selector import SelectionResult, select_all
from .stats import pool_margins
from .text_analysis import ROUTER_FEATURE_NAMES, router_row

ACTION_Q = "Q"
ACTION_UNION = "Union"

ALPHA_MODE_FROZEN = "frozen"
ALPHA_MODE_P_WEIGHTED = "p_weighted"


@dataclass(frozen=True)
class RoutingConfig:
    tau: float = 0.5
    alpha: float = 0.25
    alpha_mode: str = ALPHA_MODE_FROZEN
    k: int = 5

    def __post_init__(self) -> None:
        if not (0.0 <= self.alpha <= 1.0):
            raise ValueError("alpha must lie in [0, 1]")
        if not (0.0 <= self.tau <= 1.0):
            raise ValueError("tau must lie in [0, 1]")
        if self.alpha_mode not in (ALPHA_MODE_FROZEN, ALPHA_MODE_P_WEIGHTED):
            raise ValueError(f"unknown alpha_mode {self.alpha_mode!r}")
        if self.k < 1:
            raise ValueError("k must be >= 1")


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


def clip_alpha(p_union):
    """The probability-weighted alpha rule: clip(p x 0.5, 0.1, 0.5), per element."""
    return np.clip(p_union * 0.5, 0.1, 0.5)


def fusion_alpha(p_union, cfg: RoutingConfig):
    """The alpha that Union fuses with under ``cfg.alpha_mode``."""
    return clip_alpha(p_union) if cfg.alpha_mode == ALPHA_MODE_P_WEIGHTED else cfg.alpha


def fuse_scores(q_scores, brel_scores, alpha) -> np.ndarray:
    """Element-wise convex combination (1 - alpha) * q + alpha * b of aligned scores.

    ``alpha`` is one weight, or for score matrices a column of one weight per row.
    """
    q = np.asarray(q_scores, dtype=float)
    b = np.asarray(brel_scores, dtype=float)
    if q.shape != b.shape:
        raise ValueError(f"length mismatch: {q.shape} vs {b.shape}")
    if not (np.all(np.isfinite(q)) and np.all(np.isfinite(b))):
        raise ValueError("scores must be finite")
    a = np.asarray(alpha, dtype=float)
    if not np.all((0.0 <= a) & (a <= 1.0)):
        raise ValueError("alpha must lie in [0, 1]")
    return (1.0 - a) * q + a * b


def route(
    features,
    has_sentence,
    router_model: LinearModel,
    cfg: RoutingConfig | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Route every row of a router feature matrix: (p_union, union, alpha) arrays.

    A row without a relation sentence has nothing to fuse with: it is forced
    to Q with p_union 0 and alpha ``cfg.alpha``.
    """
    cfg = cfg or RoutingConfig()
    has_sentence = np.asarray(has_sentence, dtype=bool)
    p_union = np.where(has_sentence, predict_proba(router_model, features), 0.0)
    union = has_sentence & (p_union >= cfg.tau)
    alpha = np.where(has_sentence, fusion_alpha(p_union, cfg), cfg.alpha)
    return p_union, union, alpha


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
    order = sorted(zip(pool_ids, scores.tolist()), key=lambda item: (-item[1], item[0]))
    return RankedList(entries=tuple(order), k=k)


def recall_at_k(ranked: RankedList, gold_id: str, k: int = 5) -> bool:
    return any(cid == gold_id for cid, _ in ranked.entries[:k])


@dataclass(frozen=True)
class PoolIndex:
    """The candidate pools of a batch of queries, as store rows, gold first.

    Row i is query i. Column 0 of ``candidates`` is the gold passage (scored
    even when it is not in the pool); the next ``sizes[i]`` columns are the
    rest of the pool, in pool order, and shorter pools are padded with the
    gold row. ``tie[i, j]`` marks distractor column j + 1 as one that a tied
    gold ranks below (its id sorts first).
    """

    candidates: np.ndarray  # (n, 1 + width) doc-mode store rows
    sizes: np.ndarray  # (n,) distractors per query
    tie: np.ndarray  # (n, width) bool
    gold_in_pool: np.ndarray  # (n,) bool

    @classmethod
    def build(cls, store: VectorStore, queries) -> PoolIndex:
        # Passages are coded by their rank in id order, so that comparing
        # codes compares ids, and each distinct passage is looked up once.
        ids = sorted({pid for q in queries for pid in (q.gold_id, *q.pool_ids)})
        code = {pid: c for c, pid in enumerate(ids)}
        pools = [[code[q.gold_id]] + [code[pid] for pid in q.pool_ids if pid != q.gold_id] for q in queries]
        sizes = np.array([len(pool) - 1 for pool in pools], dtype=np.intp)
        width = int(sizes.max(initial=0))
        codes = np.array([pool + pool[:1] * (width + 1 - len(pool)) for pool in pools], dtype=np.intp)
        codes = codes.reshape(len(pools), 1 + width)
        return cls(
            candidates=store.rows([passage_key(pid) for pid in ids], MODE_DOC)[codes],
            sizes=sizes,
            tie=(np.arange(width) < sizes[:, None]) & (codes[:, 1:] < codes[:, :1]),
            gold_in_pool=np.array([q.gold_id in q.pool_ids for q in queries], dtype=bool),
        )

    def take(self, rows) -> PoolIndex:
        """The index of the queries at ``rows``, in that order."""
        rows = np.asarray(rows, dtype=np.intp)
        return PoolIndex(self.candidates[rows], self.sizes[rows], self.tie[rows], self.gold_in_pool[rows])

    def score(self, store: VectorStore, *sides) -> np.ndarray:
        """One score matrix per side: a list of query-mode text ids, one per query.

        Each pool's vectors are gathered once for all the sides.
        """
        return score_rows(store, [store.rows(ids, MODE_QUERY) for ids in sides], self.candidates)

    def ranks(self, scores: np.ndarray) -> np.ndarray:
        """The gold's 1-based rank per query; 0 when the gold is not in the pool.

        Equal to its position under ``rank_pool``'s order (score descending,
        then id): 1 + distractors scored above it + tied ones with a lower id.
        """
        gold = scores[:, :1]
        rest = scores[:, 1:]
        valid = np.arange(rest.shape[1]) < self.sizes[:, None]
        above = np.count_nonzero((rest > gold) & valid, axis=1)
        tied = np.count_nonzero((rest == gold) & self.tie, axis=1)
        return np.where(self.gold_in_pool, 1 + above + tied, 0)

    def margins(self, scores: np.ndarray) -> np.ndarray:
        """Rows of margins, distractor spreads and AUCs: one column per query.

        Each equals ``separation_margin`` and ``per_query_auc`` of the gold
        score against the distractor scores in pool order; nan for a query
        without distractors.
        """
        out = np.full((3, len(self.sizes)), np.nan)
        for size in np.unique(self.sizes[self.sizes > 0]):
            rows = np.flatnonzero(self.sizes == size)
            out[:, rows] = pool_margins(scores[rows, 0], scores[rows, 1 : 1 + size])
        return out


def hits_at_k(ranks: np.ndarray, k: int) -> np.ndarray:
    """Recall@k per query from gold ranks (0 = gold not in the pool)."""
    return (ranks >= 1) & (ranks <= k)


@dataclass(frozen=True)
class Analysis:
    """One pass over a dataset's queries, in dataset order.

    ``selections`` keep each query's bridge sentences and the profiles
    its router features were read from. ``scores`` holds one matrix per
    side, in ``index``'s columns: the question, B_rel (the question where
    the selector abstained), then any extra sides.
    """

    selections: tuple[SelectionResult, ...]
    b_rels: tuple[str, ...]  # "" where the selector abstained
    features: np.ndarray  # (n, 5) router features, in ROUTER_FEATURE_NAMES order
    index: PoolIndex
    scores: tuple[np.ndarray, ...]

    @property
    def has_b_rel(self) -> np.ndarray:
        return np.array([bool(b_rel) for b_rel in self.b_rels], dtype=bool)


def analyze(ds: Dataset, store: VectorStore, selector_model: LinearModel, *extra_sides,
            profiles: dict | None = None) -> Analysis:
    """Select every query's relation sentence and score its pool under each side.

    Each extra side is a list of query-mode text ids, one per query; all
    sides are scored from one gather of each pool. ``profiles`` is passed
    on to ``select_all``.
    """
    pairs = [(ds.passage(q.bridge_id), q.question) for q in ds.queries]
    selections = tuple(select_all(pairs, selector_model, profiles))
    b_rels = tuple("" if s.abstained else s.chosen[0] for s in selections)
    features = np.reshape([router_row(s.question, s.chosen and s.bridge.profiles[s.chosen[1]], s.bridge.word_count)
                           for s in selections], (len(pairs), len(ROUTER_FEATURE_NAMES)))
    index = PoolIndex.build(store, ds.queries)
    questions = [question_key(q.id) for q in ds.queries]
    sentences = [text_key(b_rel) if b_rel else qid for b_rel, qid in zip(b_rels, questions)]
    scores = tuple(index.score(store, questions, sentences, *extra_sides))
    return Analysis(selections, b_rels, features, index, scores)


def build_router_training(
    ds: Dataset,
    store: VectorStore,
    selector_model: LinearModel,
    cfg: RoutingConfig | None = None,
    profiles: dict | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Router feature matrix and self-supervised labels, in dataset order.

    A label is 1 iff Union at ``cfg.alpha`` hits recall@k where Q misses.
    A query whose selector abstains is labelled 0. ``profiles`` is passed
    on to ``analyze``.
    """
    cfg = cfg or RoutingConfig()
    analysis = analyze(ds, store, selector_model, profiles=profiles)
    s_q, s_b = analysis.scores
    rank_q = analysis.index.ranks(s_q)
    rank_u = analysis.index.ranks(fuse_scores(s_q, s_b, cfg.alpha))
    gain = hits_at_k(rank_u, cfg.k) & ~hits_at_k(rank_q, cfg.k)
    labels = gain & analysis.has_b_rel
    return analysis.features, labels.astype(float)

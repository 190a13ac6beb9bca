"""Experimental protocols over a materialized dataset + vector store.

Every experiment is a pure pipeline: immutable inputs in, a report
dataclass out. Reports expose ``to_json_dict`` for the JSON emitters and
``csv_rows`` (header, rows) for plot-ready CSV.

Each protocol is a reduction over one ``router_retrieval.analyze`` pass:
its selections, relation sentences, router features, ``PoolIndex`` and
score matrices. Decisions come from one ``route`` call over the
analysis's feature matrix; the oracle routes the feature rows of its
oracle sentences in one more call. Fused rankings, gold ranks, hits,
margins and AUCs are whole-matrix reductions, equal bit for bit to
ranking each pool alone, so results are deterministic. The oracle,
knockout and the P2 proxy read each bridge's sentences, and the oracle
its sentence profiles, from the selections, so no protocol splits a
bridge again. Knockout scores its bridge variants over its own subset
of the queries.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import asdict, dataclass, replace

import numpy as np

from .corpus import Dataset
from .linear_model import LinearModel
from .router_retrieval import (
    ACTION_Q,
    ACTION_UNION,
    Analysis,
    PoolIndex,
    RoutingConfig,
    analyze,
    fuse_scores,
    hits_at_k,
    route,
)
from .selector import select_all
from .stats import (
    CalibrationFit,
    MarginRecord,
    calibration_fit,
    cohen_kappa,
    mcnemar,
)
from .embedding_store import VectorStore, text_key
from .text_analysis import (
    REGIME_B_DOMINANT,
    REGIME_Q_DOMINANT,
    ROUTER_FEATURE_NAMES,
    Sentence,
    assign_regime,
    p1_proxy,
    router_row,
    title_sentence,
)

REGIME_TRANSITION = "transition"


# ---------------------------------------------------------------------------
# Shared per-query pipeline trace


@dataclass(frozen=True)
class QueryTrace:
    """Everything the eval, sweep, and trace file need about one query."""

    query_id: str
    qtype: str
    features: dict[str, float]
    p_union: float
    alpha_used: float
    action: str
    fallback: bool
    b_rel: str
    rank_q: int | None
    rank_union: int | None
    hit_q: bool
    hit_union: bool

    @property
    def hit_routed(self) -> bool:
        return self.hit_union if self.action == ACTION_UNION else self.hit_q

    def to_json_dict(self) -> dict:
        return {
            "query_id": self.query_id,
            "qtype": self.qtype,
            "features": self.features,
            "p_union": self.p_union,
            "action": self.action,
            "alpha_used": self.alpha_used,
            "fallback": self.fallback,
            "rank_gold_q": self.rank_q,
            "rank_gold_union": self.rank_union,
            "hit_q": self.hit_q,
            "hit_union": self.hit_union,
            "hit_routed": self.hit_routed,
        }


def _traced(
    ds: Dataset,
    store: VectorStore,
    selector_model: LinearModel,
    router_model: LinearModel,
    cfg: RoutingConfig,
) -> tuple[list[QueryTrace], Analysis]:
    """Every query's trace, with the analysis it ranked."""
    if not ds.queries:
        raise ValueError("dataset has no queries")
    analysis = analyze(ds, store, selector_model)
    index, (s_q, s_b), has_b = analysis.index, analysis.scores, analysis.has_b_rel
    p_union, union, alpha = route(analysis.features, has_b, router_model, cfg)
    fused = np.where(has_b[:, None], fuse_scores(s_q, s_b, alpha[:, None]), s_q)
    rank_q, rank_u = index.ranks(s_q), index.ranks(fused)
    hit_q, hit_u = hits_at_k(rank_q, cfg.k), hits_at_k(rank_u, cfg.k)
    features, p_union, alpha = analysis.features.tolist(), p_union.tolist(), alpha.tolist()
    traces = [
        QueryTrace(
            query_id=q.id,
            qtype=q.qtype,
            features=dict(zip(ROUTER_FEATURE_NAMES, features[i])),
            p_union=p_union[i],
            alpha_used=alpha[i],
            action=ACTION_UNION if union[i] else ACTION_Q,
            fallback=not has_b[i],
            b_rel=analysis.b_rels[i],
            rank_q=int(rank_q[i]) or None,
            rank_union=int(rank_u[i]) or None,
            hit_q=bool(hit_q[i]),
            hit_union=bool(hit_u[i]),
        )
        for i, q in enumerate(ds.queries)
    ]
    return traces, analysis


# ---------------------------------------------------------------------------
# Main evaluation


@dataclass(frozen=True)
class EvalReport:
    dataset: str
    n: int
    q_only_r_at_k: float
    routed_r_at_k: float
    delta: float
    wins: int
    losses: int
    mcnemar_p: dict[str, float]
    union_rate: float
    fallback_count: int
    calibration: dict | None
    traces: tuple[QueryTrace, ...]

    def to_json_dict(self) -> dict:
        return {
            "dataset": self.dataset,
            "n": self.n,
            "q_only_r_at_k": self.q_only_r_at_k,
            "routed_r_at_k": self.routed_r_at_k,
            "delta": self.delta,
            "wins": self.wins,
            "losses": self.losses,
            "mcnemar": self.mcnemar_p,
            "union_rate": self.union_rate,
            "fallback_count": self.fallback_count,
            "calibration": self.calibration,
        }

    def csv_rows(self) -> tuple[list[str], list[list]]:
        header = [
            "query_id", "qtype", "p_union", "action", "alpha_used",
            "rank_gold_q", "rank_gold_union", "hit_q", "hit_union", "hit_routed",
            *(f"features.{name}" for name in ROUTER_FEATURE_NAMES),
        ]
        rows = [
            [
                t.query_id, t.qtype, t.p_union, t.action, t.alpha_used,
                t.rank_q, t.rank_union, int(t.hit_q), int(t.hit_union), int(t.hit_routed),
                *(t.features[name] for name in ROUTER_FEATURE_NAMES),
            ]
            for t in self.traces
        ]
        return header, rows


def run_main_eval(
    ds: Dataset,
    store: VectorStore,
    selector_model: LinearModel,
    router_model: LinearModel,
    cfg: RoutingConfig | None = None,
) -> EvalReport:
    """Q-only versus routed recall@k with discordant-pair significance."""
    cfg = cfg or RoutingConfig()
    traces, analysis = _traced(ds, store, selector_model, router_model, cfg)
    n = len(traces)
    hit_q = sum(t.hit_q for t in traces)
    hit_routed = sum(t.hit_routed for t in traces)
    wins = sum(1 for t in traces if t.hit_routed and not t.hit_q)
    losses = sum(1 for t in traces if t.hit_q and not t.hit_routed)

    calibration = None
    # The question-side scores hold each gold and its distractors already.
    index = analysis.index
    margin, sigma, auc = index.margins(analysis.scores[0])[:, index.sizes > 0]
    if auc.size >= 3:
        fit = calibration_fit(list(zip(margin, sigma)), auc)
        calibration = asdict(fit)

    return EvalReport(
        dataset=ds.name,
        n=n,
        q_only_r_at_k=hit_q / n,
        routed_r_at_k=hit_routed / n,
        delta=(hit_routed - hit_q) / n,
        wins=wins,
        losses=losses,
        mcnemar_p=mcnemar(wins, losses),
        union_rate=sum(1 for t in traces if t.action == ACTION_UNION) / n,
        fallback_count=sum(1 for t in traces if t.fallback),
        calibration=calibration,
        traces=tuple(traces),
    )


# ---------------------------------------------------------------------------
# Margin records and regime assignment


def compute_margins(
    ds: Dataset,
    store: VectorStore,
    selector_model: LinearModel,
) -> list[MarginRecord]:
    """Per-query margins/AUC under the question and the selected sentence."""
    return _margin_records(ds, analyze(ds, store, selector_model))


def _margin_records(ds: Dataset, analysis: Analysis) -> list[MarginRecord]:
    index, (by_q, by_b), has_b = analysis.index, analysis.scores, analysis.has_b_rel
    # A query without distractors, or without a sentence side, reads (margin 0, sigma 0, AUC 0.5) there.
    blank = [[0.0], [0.0], [0.5]]
    q_side = np.where(index.sizes > 0, index.margins(by_q), blank)
    b_side = np.where((index.sizes > 0) & has_b, index.margins(by_b), blank)
    degenerate = (index.sizes == 0) | ~has_b | (q_side[1] == 0.0) | (b_side[1] == 0.0)
    return [
        MarginRecord(q.id, s_q, s_b, sigma_q, sigma_b, auc_q, auc_b, degenerate=bool(d))
        for q, (s_q, sigma_q, auc_q), (s_b, sigma_b, auc_b), d in zip(
            ds.queries, q_side.T.tolist(), b_side.T.tolist(), degenerate
        )
    ]


@dataclass(frozen=True)
class RegimeAgreement:
    n_total: int
    n_used: int
    agreement: float
    kappa: float
    proxy_counts: dict[str, int]

    def to_json_dict(self) -> dict:
        return {
            "n_total": self.n_total,
            "n_used": self.n_used,
            "agreement": self.agreement,
            "kappa": self.kappa,
            "proxy_counts": self.proxy_counts,
        }

    def csv_rows(self) -> tuple[list[str], list[list]]:
        header = ["n_total", "n_used", "agreement", "kappa"]
        return header, [[self.n_total, self.n_used, self.agreement, self.kappa]]


def regime_assignment_eval(
    ds: Dataset,
    margins: list[MarginRecord],
    sentences: Sequence[Sequence[Sentence]],
) -> RegimeAgreement:
    """Agreement between the P1/P2 proxy regime and the sign of delta-S.

    P2 reads each query's bridge ``sentences``. The proxy's uncovered
    regime maps to the Q side (its fallback action) for the binary
    comparison. Queries with degenerate margins or an exactly zero delta
    are excluded from the agreement count.
    """
    by_id = {m.query_id: m for m in margins}
    proxy_labels: list[str] = []
    observed_labels: list[str] = []
    proxy_counts: dict[str, int] = {}
    for q, sents in zip(ds.queries, sentences):
        p2 = title_sentence(sents, q.hop2_title) is not None
        assignment = assign_regime(p1_proxy(q.question, q.hop2_title), p2)
        proxy_counts[assignment.regime] = proxy_counts.get(assignment.regime, 0) + 1
        rec = by_id.get(q.id)
        if rec is None or rec.degenerate:
            continue
        delta_s = rec.s_b - rec.s_q
        if delta_s == 0.0:
            continue
        proxy_labels.append("B" if assignment.regime == REGIME_B_DOMINANT else "Q")
        observed_labels.append("B" if delta_s > 0 else "Q")
    n_used = len(proxy_labels)
    agreement = (
        sum(1 for a, b in zip(proxy_labels, observed_labels) if a == b) / n_used if n_used else 0.0
    )
    kappa = cohen_kappa(proxy_labels, observed_labels) if n_used else 0.0
    return RegimeAgreement(
        n_total=len(ds.queries),
        n_used=n_used,
        agreement=agreement,
        kappa=kappa,
        proxy_counts=proxy_counts,
    )


def run_regime_agreement(ds: Dataset, store: VectorStore, selector_model: LinearModel) -> RegimeAgreement:
    """``regime_assignment_eval`` over one analysis: its margins and its bridge sentences."""
    analysis = analyze(ds, store, selector_model)
    sentences = [s.bridge.sentences for s in analysis.selections]
    return regime_assignment_eval(ds, _margin_records(ds, analysis), sentences)


# ---------------------------------------------------------------------------
# Mixture decomposition


@dataclass(frozen=True)
class RegimeRow:
    qtype: str
    prevalence: float
    delta_q_minus_b: float
    verdict: str


@dataclass(frozen=True)
class RegimeTable:
    rows: tuple[RegimeRow, ...]
    aggregate_q_minus_b_weighted: float
    aggregate_q_minus_b_micro: float
    skipped_degenerate: int = 0

    def to_json_dict(self) -> dict:
        return {
            "rows": [
                {
                    "qtype": r.qtype,
                    "prevalence": r.prevalence,
                    "delta_q_minus_b": r.delta_q_minus_b,
                    "verdict": r.verdict,
                }
                for r in self.rows
            ],
            "aggregate": {
                "q_minus_b_weighted": self.aggregate_q_minus_b_weighted,
                "q_minus_b_micro": self.aggregate_q_minus_b_micro,
            },
            "skipped_degenerate": self.skipped_degenerate,
        }

    def csv_rows(self) -> tuple[list[str], list[list]]:
        header = ["qtype", "prevalence", "delta_q_minus_b", "verdict"]
        return header, [[r.qtype, r.prevalence, r.delta_q_minus_b, r.verdict] for r in self.rows]


def mixture_decomposition(per_query: list[tuple[str, float, float]]) -> RegimeTable:
    """Type-stratified AUC deltas and their aggregate, Q minus B.

    per_query rows are (qtype, auc_q, auc_b). The prevalence-weighted
    aggregate and the micro mean weigh the same data alike, so they agree
    up to summation order; both are emitted.
    """
    if not per_query:
        raise ValueError("need at least one query")
    n = len(per_query)
    by_type: dict[str, list[float]] = {}
    for qtype, auc_q, auc_b in per_query:
        by_type.setdefault(qtype, []).append(auc_q - auc_b)
    rows = []
    for qtype, deltas in by_type.items():
        delta = float(np.mean(deltas))
        if delta > 0:
            verdict = REGIME_Q_DOMINANT
        elif delta < 0:
            verdict = REGIME_B_DOMINANT
        else:
            verdict = REGIME_TRANSITION
        rows.append(RegimeRow(qtype, len(deltas) / n, delta, verdict))
    rows.sort(key=lambda r: (-r.prevalence, r.qtype))
    weighted = float(sum(r.prevalence * r.delta_q_minus_b for r in rows))
    micro = float(np.mean([auc_q - auc_b for _, auc_q, auc_b in per_query]))
    return RegimeTable(
        rows=tuple(rows),
        aggregate_q_minus_b_weighted=weighted,
        aggregate_q_minus_b_micro=micro,
    )


def run_mixture(ds: Dataset, store: VectorStore, selector_model: LinearModel) -> RegimeTable:
    """``mixture_decomposition`` of the non-degenerate margins, counting the ones it drops."""
    margins = compute_margins(ds, store, selector_model)
    usable = [(q.qtype, m.auc_q, m.auc_b) for q, m in zip(ds.queries, margins) if not m.degenerate]
    return replace(mixture_decomposition(usable), skipped_degenerate=len(margins) - len(usable))


# ---------------------------------------------------------------------------
# Knockout


@dataclass(frozen=True)
class KnockoutRecord:
    query_id: str
    auc_full: float
    auc_rel: float
    auc_minus: float


@dataclass(frozen=True)
class KnockoutReport:
    records: tuple[KnockoutRecord, ...]
    excluded: int
    mean_auc_full: float
    mean_auc_rel: float
    mean_auc_minus: float
    full_vs_minus: dict
    full_vs_rel: dict

    def to_json_dict(self) -> dict:
        return {
            "n_used": len(self.records),
            "excluded_single_sentence": self.excluded,
            "mean_auc": {
                "full": self.mean_auc_full,
                "rel": self.mean_auc_rel,
                "minus": self.mean_auc_minus,
            },
            "full_vs_minus": self.full_vs_minus,
            "full_vs_rel": self.full_vs_rel,
            "per_query": [
                {
                    "query_id": r.query_id,
                    "auc_full": r.auc_full,
                    "auc_rel": r.auc_rel,
                    "auc_minus": r.auc_minus,
                }
                for r in self.records
            ],
        }

    def csv_rows(self) -> tuple[list[str], list[list]]:
        header = ["query_id", "auc_full", "auc_rel", "auc_minus"]
        return header, [[r.query_id, r.auc_full, r.auc_rel, r.auc_minus] for r in self.records]


def knockout_variants(body: str, sents: Sequence[Sentence], selection_index: int | None,
                      ) -> tuple[str, str, str] | None:
    """(full, rel, minus) texts for a bridge body, its sentences and a sentence index.

    minus is the body with the sentence's char span removed and
    whitespace collapsed. Returns None when the body has fewer than two
    sentences (no meaningful minus variant).
    """
    if len(sents) < 2 or selection_index is None or not (0 <= selection_index < len(sents)):
        return None
    sent = sents[selection_index]
    minus = " ".join((body[: sent.start] + body[sent.end :]).split())
    if not minus:
        return None
    return body, sent.text, minus


def _paired_sign_summary(deltas: list[float]) -> dict:
    wins = sum(1 for d in deltas if d > 0)
    losses = sum(1 for d in deltas if d < 0)
    p = mcnemar(wins, losses)
    return {
        "mean_delta": float(np.mean(deltas)) if deltas else 0.0,
        "wins": wins,
        "losses": losses,
        "p_exact": p["p_exact"],
        "p_chi2": p["p_chi2"],
    }


def run_knockout(
    ds: Dataset,
    store: VectorStore,
    selector_model: LinearModel,
) -> KnockoutReport:
    """AUC of gold-vs-pool under three bridge variants embedded as queries."""
    selections = select_all([(ds.passage(q.bridge_id), q.question) for q in ds.queries], selector_model)
    variants = {
        i: knockout_variants(ds.passage(q.bridge_id).body, selection.bridge.sentences, selection.chosen[1])
        for i, (q, selection) in enumerate(zip(ds.queries, selections))
        if not selection.abstained
    }
    used = [i for i, texts in variants.items() if texts is not None]
    excluded = len(ds.queries) - len(used)
    index = PoolIndex.build(store, [ds.queries[i] for i in used])
    for i, size in zip(used, index.sizes):
        if not size:
            raise ValueError(f"query {ds.queries[i].id!r} has no distractor pool")
    sides = ([text_key(variants[i][v]) for i in used] for v in range(3))  # full, rel, minus
    aucs = [index.margins(by_variant)[2].tolist() for by_variant in index.score(store, *sides)]
    records = [KnockoutRecord(ds.queries[i].id, *auc) for i, *auc in zip(used, *aucs)]
    if not records:
        raise ValueError("no usable queries (all bridges single-sentence?)")
    return KnockoutReport(
        records=tuple(records),
        excluded=excluded,
        mean_auc_full=float(np.mean([r.auc_full for r in records])),
        mean_auc_rel=float(np.mean([r.auc_rel for r in records])),
        mean_auc_minus=float(np.mean([r.auc_minus for r in records])),
        full_vs_minus=_paired_sign_summary([r.auc_full - r.auc_minus for r in records]),
        full_vs_rel=_paired_sign_summary([r.auc_full - r.auc_rel for r in records]),
    )


# ---------------------------------------------------------------------------
# Oracle decomposition, ablations, threshold sweep


@dataclass(frozen=True)
class OracleReport:
    baseline_q: float
    learned: float
    oracle_selector: float
    oracle_router: float
    routing_gap: float
    selector_gap: float

    def to_json_dict(self) -> dict:
        return {
            "r_at_k": {
                "baseline_q": self.baseline_q,
                "learned": self.learned,
                "oracle_selector": self.oracle_selector,
                "oracle_router": self.oracle_router,
            },
            "routing_gap": self.routing_gap,
            "selector_gap": self.selector_gap,
        }

    def csv_rows(self) -> tuple[list[str], list[list]]:
        header = ["condition", "r_at_k"]
        return header, [
            ["baseline_q", self.baseline_q],
            ["learned", self.learned],
            ["oracle_selector", self.oracle_selector],
            ["oracle_router", self.oracle_router],
        ]


def run_oracle_analysis(
    ds: Dataset,
    store: VectorStore,
    selector_model: LinearModel,
    router_model: LinearModel,
    cfg: RoutingConfig | None = None,
) -> OracleReport:
    """Gap decomposition against oracle selector and oracle router."""
    cfg = cfg or RoutingConfig()
    traces, analysis = _traced(ds, store, selector_model, router_model, cfg)
    n = len(traces)
    baseline = sum(t.hit_q for t in traces) / n
    learned = sum(t.hit_routed for t in traces) / n
    oracle_router = sum(max(t.hit_q, t.hit_union) for t in traces) / n

    # Per query: the hit under the oracle's relation sentence, routed.
    oracle_hits = np.array([t.hit_routed for t in traces])
    rows, brels, features = [], [], []
    for i, (q, s) in enumerate(zip(ds.queries, analysis.selections)):
        idx = title_sentence(s.bridge.sentences, q.hop2_title)
        if idx is not None:
            rows.append(i)
            brels.append(s.bridge.sentences[idx].text)
            features.append(router_row(s.question, s.bridge.profiles[idx], s.bridge.word_count))
    features = np.reshape(features, (len(rows), len(ROUTER_FEATURE_NAMES)))
    _, union, alpha = route(features, np.ones(len(rows), dtype=bool), router_model, cfg)
    oracle_hits[rows] = [traces[i].hit_q for i in rows]
    fused = np.array(rows, dtype=np.intp)[union]
    sub = analysis.index.take(fused)
    (s_b,) = sub.score(store, [text_key(brel) for brel, u in zip(brels, union) if u])
    s_u = fuse_scores(analysis.scores[0][fused], s_b, alpha[union][:, None])
    oracle_hits[fused] = hits_at_k(sub.ranks(s_u), cfg.k)
    oracle_selector = int(np.count_nonzero(oracle_hits)) / n

    return OracleReport(
        baseline_q=baseline,
        learned=learned,
        oracle_selector=oracle_selector,
        oracle_router=oracle_router,
        routing_gap=oracle_router - learned,
        selector_gap=oracle_selector - learned,
    )


@dataclass(frozen=True)
class AblationRow:
    condition: str
    r_at_5: float
    delta_pp: float


@dataclass(frozen=True)
class AblationReport:
    rows: tuple[AblationRow, ...]

    def to_json_dict(self) -> dict:
        return {
            "rows": [
                {"condition": r.condition, "r_at_5": r.r_at_5, "delta_pp": r.delta_pp}
                for r in self.rows
            ]
        }

    def csv_rows(self) -> tuple[list[str], list[list]]:
        header = ["condition", "r_at_5", "delta_pp"]
        return header, [[r.condition, r.r_at_5, r.delta_pp] for r in self.rows]


def run_ablations(
    ds: Dataset,
    store: VectorStore,
    selector_model: LinearModel,
    router_model: LinearModel,
    cfg: RoutingConfig | None = None,
) -> AblationReport:
    """The six-condition table: baselines, unrouted fusions, routed, heuristic."""
    cfg = cfg or RoutingConfig()
    n = len(ds.queries)
    if n == 0:
        raise ValueError("dataset has no queries")

    # Every condition fuses the analysis's matrices. A query whose selector
    # abstains keeps its Q hit under every condition that uses the sentence.
    analysis = analyze(ds, store, selector_model, [text_key(ds.passage(q.bridge_id).body) for q in ds.queries])
    index, (s_q, s_b, s_body), chosen = analysis.index, analysis.scores, analysis.has_b_rel
    _, union, alpha_used = route(analysis.features, chosen, router_model, cfg)
    column = dict(zip(ROUTER_FEATURE_NAMES, analysis.features.T))
    hit_q = hits_at_k(index.ranks(s_q), cfg.k)

    def hits_where(rule, other, alpha) -> int:
        """Hits when the queries ``rule`` picks fuse ``other`` at ``alpha`` and the rest take Q."""
        fused = hits_at_k(index.ranks(fuse_scores(s_q, other, alpha)), cfg.k)
        return int(np.count_nonzero(np.where(rule, fused, hit_q)))

    ne_union = chosen & (column["b_new_entity_count"] >= 1) & (column["q_comparison_word"] == 0)
    hits_q = int(np.count_nonzero(hit_q))
    hits_full_unrouted = hits_where(True, s_body, 0.5)
    hits_brel_unrouted = hits_where(chosen, s_b, 0.5)
    hits_routed_half = hits_where(union, s_b, 0.5)
    hits_routed_main = hits_where(union, s_b, alpha_used[:, None])
    hits_ne = hits_where(ne_union, s_b, cfg.alpha)

    base = hits_q / n
    rows = [
        AblationRow("q_only", base, 0.0),
        AblationRow("full_bridge_unrouted_alpha_0.5", hits_full_unrouted / n, (hits_full_unrouted / n - base) * 100),
        AblationRow("brel_unrouted_alpha_0.5", hits_brel_unrouted / n, (hits_brel_unrouted / n - base) * 100),
        AblationRow("routed_alpha_0.5", hits_routed_half / n, (hits_routed_half / n - base) * 100),
        AblationRow(f"routed_alpha_{cfg.alpha}", hits_routed_main / n, (hits_routed_main / n - base) * 100),
        AblationRow("ne_heuristic", hits_ne / n, (hits_ne / n - base) * 100),
    ]
    return AblationReport(rows=tuple(rows))


@dataclass(frozen=True)
class SweepRow:
    tau: float
    r_at_5: float
    union_rate: float


@dataclass(frozen=True)
class SweepReport:
    rows: tuple[SweepRow, ...]

    def to_json_dict(self) -> dict:
        return {
            "rows": [
                {"tau": r.tau, "r_at_5": r.r_at_5, "union_rate": r.union_rate} for r in self.rows
            ]
        }

    def csv_rows(self) -> tuple[list[str], list[list]]:
        header = ["tau", "r_at_5", "union_rate"]
        return header, [[r.tau, r.r_at_5, r.union_rate] for r in self.rows]


DEFAULT_SWEEP_TAUS = (0.5, 0.55, 0.6, 0.65, 0.7, 0.75)


def threshold_sweep(
    ds: Dataset,
    store: VectorStore,
    selector_model: LinearModel,
    router_model: LinearModel,
    taus=DEFAULT_SWEEP_TAUS,
    cfg: RoutingConfig | None = None,
) -> SweepReport:
    """Recall@k and Union rate as the routing threshold varies.

    p_union and both rankings are computed once per query; each tau only
    re-applies the decision rule, so tau=0 reproduces all-Union and any
    tau > 1 reproduces all-Q bitwise.
    """
    cfg = cfg or RoutingConfig()
    traces = _traced(ds, store, selector_model, router_model, cfg)[0]
    n = len(traces)
    rows = []
    for tau in taus:
        hits = 0
        unions = 0
        for t in traces:
            union = (not t.fallback) and t.p_union >= tau
            unions += union
            hits += t.hit_union if union else t.hit_q
        rows.append(SweepRow(tau=float(tau), r_at_5=hits / n, union_rate=unions / n))
    return SweepReport(rows=tuple(rows))


# ---------------------------------------------------------------------------
# Synthetic calibration


def synthetic_calibration(
    n: int = 10_000,
    pool_size: int = 200,
    sigma: float = 0.1,
    seed: int = 0,
) -> CalibrationFit:
    """Gaussian-pool simulation validating the margin-to-AUC law.

    Per query a gold score is drawn from Normal(0, 4 * sigma) and a pool
    of Normal(0, sigma) scores; predicted AUC phi(S/sigma) is fit against
    the empirical AUC. The spread of 4 * sigma keeps most query pairs
    separated by more than the 1/pool_size AUC noise floor, so
    pairwise-order agreement reflects the law, not tie noise.
    """
    if n < 3 or pool_size < 2:
        raise ValueError("need n >= 3 and pool_size >= 2")
    rng = np.random.default_rng(seed)
    golds = rng.normal(0.0, 4.0 * sigma, size=n)
    pools = rng.normal(0.0, sigma, size=(n, pool_size))

    mu = pools.mean(axis=1)
    sd = pools.std(axis=1)
    s = golds - mu
    below = (pools < golds[:, None]).sum(axis=1)
    tied = (pools == golds[:, None]).sum(axis=1)
    aucs = (below + 0.5 * tied) / pool_size
    return calibration_fit(list(zip(s, sd)), aucs)

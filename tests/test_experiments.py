import numpy as np
import pytest

from regime_router.corpus import Dataset, Passage, Query, validate_dataset
from regime_router.embedding_store import VectorStore, passage_key, question_key, text_key
from regime_router.experiments import (
    DEFAULT_SWEEP_TAUS,
    QueryTrace,
    compute_margins,
    knockout_variants,
    mixture_decomposition,
    regime_assignment_eval,
    run_ablations,
    run_knockout,
    run_main_eval,
    run_mixture,
    run_oracle_analysis,
    run_regime_agreement,
    synthetic_calibration,
    threshold_sweep,
)
from regime_router.linear_model import train
from regime_router.router_retrieval import ACTION_Q, ACTION_UNION, RoutingConfig, build_router_training
from regime_router.selector import AnnotatedBridge, train_selector
from regime_router.text_analysis import REGIME_B_DOMINANT, REGIME_Q_DOMINANT, split_sentences


@pytest.fixture(scope="module")
def routing_models(routing_world):
    ds, store, annotations = routing_world
    selector_model = train_selector(annotations)
    X, y = build_router_training(ds, store, selector_model)
    router_model = train(X, y)
    return ds, store, selector_model, router_model


@pytest.fixture(scope="module")
def knockout_selector(knockout_world):
    _, _, annotations = knockout_world
    return train_selector(annotations)


# ---------------------------------------------------------------------------
# traces


def test_trace_fields_and_actions(routing_models):
    ds, store, selector_model, router_model = routing_models
    traces = run_main_eval(ds, store, selector_model, router_model).traces
    assert len(traces) == len(ds.queries)
    for q, t in zip(ds.queries, traces):
        assert t.query_id == q.id
        assert t.qtype == q.qtype
        assert set(t.features)  # populated feature dict
        assert not t.fallback
        if q.qtype == "comparison":
            assert t.action == ACTION_Q
            assert t.hit_q and t.rank_q == 1
        else:
            assert t.action == ACTION_UNION
            assert not t.hit_q and t.hit_union
            assert t.rank_union == 1 and t.rank_q == 7
        assert t.hit_routed  # routed pipeline solves every query here


def test_trace_json_keys():
    t = QueryTrace(
        query_id="q1", qtype="comparison", features={"f": 1.0}, p_union=0.7,
        alpha_used=0.25, action=ACTION_UNION, fallback=False, b_rel="s",
        rank_q=3, rank_union=1, hit_q=False, hit_union=True,
    )
    d = t.to_json_dict()
    assert d["rank_gold_q"] == 3
    assert d["rank_gold_union"] == 1
    assert d["hit_routed"] is True
    t_q = QueryTrace(
        query_id="q1", qtype="comparison", features={}, p_union=0.2,
        alpha_used=0.25, action=ACTION_Q, fallback=False, b_rel="s",
        rank_q=1, rank_union=2, hit_q=True, hit_union=False,
    )
    assert t_q.hit_routed is True  # Q action follows hit_q


# ---------------------------------------------------------------------------
# main eval


def test_main_eval_numbers(routing_models):
    ds, store, selector_model, router_model = routing_models
    report = run_main_eval(ds, store, selector_model, router_model)
    assert report.n == 50
    assert report.q_only_r_at_k == pytest.approx(0.5)
    assert report.routed_r_at_k == pytest.approx(1.0)
    assert report.delta == pytest.approx(0.5)
    assert report.wins == 25
    assert report.losses == 0
    assert report.union_rate == pytest.approx(0.5)
    assert report.fallback_count == 0
    assert 0.0 <= report.mcnemar_p["p_exact"] < 1e-6
    assert report.calibration is not None
    assert report.calibration["n"] == 50
    assert len(report.traces) == 50
    header, rows = report.csv_rows()
    assert header[0] == "query_id"
    assert len(rows) == 50


def test_main_eval_rejects_empty():
    ds = Dataset(name="empty", queries=(), passages={})
    store = VectorStore(2, {})
    with pytest.raises(ValueError, match="no queries"):
        run_main_eval(ds, store, None, None)


@pytest.mark.parametrize("protocol", [run_oracle_analysis, threshold_sweep])
def test_traced_protocols_reject_empty(protocol):
    # Every recall rate divides by the query count.
    with pytest.raises(ValueError, match="no queries"):
        protocol(Dataset(name="empty", queries=(), passages={}), VectorStore(2, {}), None, None)


# ---------------------------------------------------------------------------
# margins and regime agreement


@pytest.fixture(scope="module")
def margin_models(margin_world):
    ds, store, annotations = margin_world
    return ds, store, train_selector(annotations)


def test_compute_margins_signs(margin_models):
    ds, store, selector_model = margin_models
    records = compute_margins(ds, store, selector_model)
    assert len(records) == 12
    by_id = {r.query_id: r for r in records}
    for q in ds.queries:
        rec = by_id[q.id]
        assert not rec.degenerate
        assert rec.sigma_q > 0 and rec.sigma_b > 0
        if q.qtype == "comparison":
            assert rec.s_b < 0 < rec.s_q
            assert rec.auc_q == 1.0
            assert rec.auc_b == 0.0
        else:
            assert rec.s_q < 0 < rec.s_b
            assert rec.auc_q == 0.0
            assert rec.auc_b == 1.0


def bridge_sentences(ds):
    """Each query's bridge split on its own: the reference for the analysis's sentences."""
    return [split_sentences(ds.passage(q.bridge_id).body) for q in ds.queries]


def test_regime_agreement_on_margin_world(margin_models):
    ds, store, selector_model = margin_models
    margins = compute_margins(ds, store, selector_model)
    result = regime_assignment_eval(ds, margins, bridge_sentences(ds))
    assert result.n_total == 12
    assert result.n_used == 12
    assert result.agreement == pytest.approx(1.0)
    assert result.kappa == pytest.approx(1.0)
    assert result.proxy_counts == {REGIME_Q_DOMINANT: 6, REGIME_B_DOMINANT: 6}
    assert result.to_json_dict()["n_used"] == 12
    # One analysis, with P2 read off its bridge sentences, gives the same agreement.
    assert run_regime_agreement(ds, store, selector_model) == result


def test_regime_agreement_excludes_degenerate_pools(routing_models):
    ds, store, selector_model, _ = routing_models
    margins = compute_margins(ds, store, selector_model)
    # Every routing-world pool repeats one distractor vector, so every
    # record is degenerate and the agreement count is empty.
    assert all(m.degenerate for m in margins)
    result = regime_assignment_eval(ds, margins, bridge_sentences(ds))
    assert result.n_total == 50
    assert result.n_used == 0
    assert result.agreement == 0.0
    assert result.kappa == 0.0
    assert result.proxy_counts == {REGIME_Q_DOMINANT: 25, REGIME_B_DOMINANT: 25}
    assert run_regime_agreement(ds, store, selector_model) == result


# ---------------------------------------------------------------------------
# mixture decomposition


def mixture_rows():
    groups = [("comparison", 24, 0.650), ("bridge_comparison", 9, 0.0),
              ("compositional", 11, -0.108), ("inference", 6, -0.118)]
    rows = []
    for qtype, count, delta in groups:
        rows.extend((qtype, delta, 0.0) for _ in range(count))
    return rows


def test_mixture_worked_example():
    table = mixture_decomposition(mixture_rows())
    assert [r.qtype for r in table.rows] == [
        "comparison", "compositional", "bridge_comparison", "inference",
    ]
    by_type = {r.qtype: r for r in table.rows}
    assert by_type["comparison"].prevalence == pytest.approx(0.48)
    assert by_type["comparison"].delta_q_minus_b == pytest.approx(0.650)
    assert by_type["comparison"].verdict == REGIME_Q_DOMINANT
    assert by_type["bridge_comparison"].verdict == "transition"
    assert by_type["compositional"].verdict == REGIME_B_DOMINANT
    assert by_type["inference"].verdict == REGIME_B_DOMINANT
    assert table.aggregate_q_minus_b_weighted == pytest.approx(0.27408, abs=1e-9)


def test_mixture_identity_weighted_equals_micro():
    rng = np.random.default_rng(3)
    types = ["comparison", "compositional", "inference", "other"]
    rows = [
        (types[rng.integers(len(types))], float(rng.uniform(0, 1)), float(rng.uniform(0, 1)))
        for _ in range(257)
    ]
    table = mixture_decomposition(rows)
    assert abs(table.aggregate_q_minus_b_weighted - table.aggregate_q_minus_b_micro) < 1e-12
    assert sum(r.prevalence for r in table.rows) == pytest.approx(1.0)


def test_run_mixture_drops_degenerate_margins(margin_models, routing_models):
    ds, store, selector_model = margin_models
    margins = compute_margins(ds, store, selector_model)
    table = run_mixture(ds, store, selector_model)
    assert table.skipped_degenerate == 0
    assert table.to_json_dict()["skipped_degenerate"] == 0
    assert table.rows == mixture_decomposition([(q.qtype, m.auc_q, m.auc_b) for q, m in zip(ds.queries, margins)]).rows
    # Every routing-world margin is degenerate, so nothing is left to decompose.
    with pytest.raises(ValueError, match="at least one query"):
        run_mixture(*routing_models[:3])


def test_mixture_rejects_empty():
    with pytest.raises(ValueError):
        mixture_decomposition([])


# ---------------------------------------------------------------------------
# knockout


def test_knockout_variants_shapes():
    body = "First sentence here. Second sentence follows. Third closes."
    sents = split_sentences(body)
    full, rel, minus = knockout_variants(body, sents, 1)
    assert full == body
    assert rel == "Second sentence follows."
    assert minus == "First sentence here. Third closes."
    one = "Only one sentence."
    assert knockout_variants(one, split_sentences(one), 0) is None
    assert knockout_variants(body, sents, None) is None
    assert knockout_variants(body, sents, 7) is None


def test_knockout_world_separation(knockout_world, knockout_selector):
    ds, store, _ = knockout_world
    report = run_knockout(ds, store, knockout_selector)
    assert len(report.records) == 100
    assert report.excluded == 0
    assert report.mean_auc_full == pytest.approx(1.0)
    assert report.mean_auc_rel == pytest.approx(1.0)
    assert report.mean_auc_minus == pytest.approx(0.0)
    assert report.full_vs_minus["mean_delta"] == pytest.approx(1.0)
    assert report.full_vs_minus["wins"] == 100
    assert report.full_vs_minus["losses"] == 0
    assert report.full_vs_minus["p_exact"] < 1e-9
    assert abs(report.full_vs_rel["mean_delta"]) < 0.02
    payload = report.to_json_dict()
    assert payload["n_used"] == 100
    assert payload["mean_auc"]["minus"] == pytest.approx(0.0)


def test_knockout_excludes_single_sentence_bridges(knockout_selector):
    e = np.eye(4)
    rel = "The charter of Relay Point X was written by Mora Quill."
    passages = {
        "b1": Passage(id="b1", title="B", body=rel),
        "g1": Passage(id="g1", title="Relay Point X", body="Registry line."),
        "d1": Passage(id="d1", title="D", body="Idle text."),
    }
    q = Query(
        id="q1", question="Who wrote the charter kept at the relay?",
        qtype="compositional", bridge_id="b1", gold_id="g1",
        pool_ids=("g1", "d1"), hop2_title="Relay Point X",
    )
    ds = Dataset(name="single", queries=(q,), passages=passages)
    validate_dataset(ds)
    store = VectorStore(
        4,
        {
            (question_key("q1"), "query"): e[3],
            (passage_key("g1"), "doc"): e[0],
            (passage_key("d1"), "doc"): e[1],
            (passage_key("b1"), "doc"): e[2],
            (text_key(rel), "query"): e[0],
        },
    )
    with pytest.raises(ValueError, match="no usable queries"):
        run_knockout(ds, store, knockout_selector)


# ---------------------------------------------------------------------------
# oracle decomposition


def test_oracle_analysis_on_routing_world(routing_models):
    ds, store, selector_model, router_model = routing_models
    report = run_oracle_analysis(ds, store, selector_model, router_model)
    assert report.baseline_q == pytest.approx(0.5)
    assert report.learned == pytest.approx(1.0)
    assert report.oracle_selector == pytest.approx(1.0)
    assert report.oracle_router == pytest.approx(1.0)
    assert report.routing_gap == pytest.approx(0.0)
    assert report.selector_gap == pytest.approx(0.0)
    payload = report.to_json_dict()
    assert payload["r_at_k"]["learned"] == pytest.approx(1.0)


def test_oracle_router_never_below_learned(routing_models):
    ds, store, selector_model, router_model = routing_models
    # A deliberately miscalibrated threshold cannot push the oracle router
    # below the learned pipeline: it takes the better branch per query.
    cfg = RoutingConfig(tau=0.95)
    report = run_oracle_analysis(ds, store, selector_model, router_model, cfg)
    assert report.oracle_router >= report.learned


# ---------------------------------------------------------------------------
# ablations


def test_ablation_table(routing_models):
    ds, store, selector_model, router_model = routing_models
    report = run_ablations(ds, store, selector_model, router_model)
    conditions = [r.condition for r in report.rows]
    assert conditions == [
        "q_only",
        "full_bridge_unrouted_alpha_0.5",
        "brel_unrouted_alpha_0.5",
        "routed_alpha_0.5",
        "routed_alpha_0.25",
        "ne_heuristic",
    ]
    by_cond = {r.condition: r for r in report.rows}
    assert by_cond["q_only"].r_at_5 == pytest.approx(0.5)
    assert by_cond["q_only"].delta_pp == 0.0
    # Fusing the whole bridge body drags compositional queries down; the
    # selected sentence alone recovers them.
    assert by_cond["full_bridge_unrouted_alpha_0.5"].r_at_5 == pytest.approx(0.5)
    assert by_cond["brel_unrouted_alpha_0.5"].r_at_5 == pytest.approx(1.0)
    assert by_cond["routed_alpha_0.5"].r_at_5 == pytest.approx(1.0)
    assert by_cond["routed_alpha_0.25"].r_at_5 == pytest.approx(1.0)
    assert by_cond["routed_alpha_0.25"].delta_pp == pytest.approx(50.0)
    assert by_cond["ne_heuristic"].r_at_5 == pytest.approx(1.0)


def test_ablation_routed_row_follows_the_alpha_mode(routing_models):
    ds, store, selector_model, router_model = routing_models
    # A frozen alpha of 0.2 cannot lift a compositional gold above its
    # distractors (that takes 0.216); the p-weighted alpha of a query
    # routed to Union is at least tau / 2 = 0.25.
    cfg = RoutingConfig(alpha=0.2, alpha_mode="p_weighted")
    routed = run_main_eval(ds, store, selector_model, router_model, cfg).routed_r_at_k
    rows = {r.condition: r.r_at_5 for r in run_ablations(ds, store, selector_model, router_model, cfg).rows}
    assert routed == pytest.approx(1.0)
    assert rows["routed_alpha_0.2"] == routed


# ---------------------------------------------------------------------------
# threshold sweep


def test_threshold_sweep_default_grid(routing_models):
    ds, store, selector_model, router_model = routing_models
    report = threshold_sweep(ds, store, selector_model, router_model)
    assert tuple(r.tau for r in report.rows) == DEFAULT_SWEEP_TAUS
    # Raising tau can only shrink the Union set.
    rates = [r.union_rate for r in report.rows]
    assert all(a >= b for a, b in zip(rates, rates[1:]))


def test_threshold_sweep_endpoints_match_forced_policies(routing_models):
    ds, store, selector_model, router_model = routing_models
    report = threshold_sweep(ds, store, selector_model, router_model, taus=(0.0, 2.0))
    all_union, all_q = report.rows

    traces = run_main_eval(ds, store, selector_model, router_model).traces
    forced_union = sum(t.hit_union for t in traces) / len(traces)
    forced_q = sum(t.hit_q for t in traces) / len(traces)

    assert all_union.union_rate == 1.0
    assert all_union.r_at_5 == forced_union
    assert all_q.union_rate == 0.0
    assert all_q.r_at_5 == forced_q


# ---------------------------------------------------------------------------
# synthetic calibration


def test_synthetic_calibration_deterministic():
    a = synthetic_calibration(n=500, pool_size=50, seed=3)
    b = synthetic_calibration(n=500, pool_size=50, seed=3)
    assert a == b
    c = synthetic_calibration(n=500, pool_size=50, seed=4)
    assert c != a


def test_synthetic_calibration_smoke_quality():
    fit = synthetic_calibration(n=2000, pool_size=100, seed=0)
    assert fit.n == 2000
    assert not fit.degenerate
    assert fit.r_squared > 0.95
    assert fit.inversion_accuracy > 0.95


def test_synthetic_calibration_validation():
    with pytest.raises(ValueError):
        synthetic_calibration(n=2)
    with pytest.raises(ValueError):
        synthetic_calibration(pool_size=1)

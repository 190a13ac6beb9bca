import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regime_router.corpus import Dataset, Passage
from regime_router.embedding_store import MissingEmbeddingError, VectorStore, text_key
from regime_router.linear_model import train
from regime_router.router_retrieval import (
    RankedList,
    RoutingConfig,
    build_router_training,
    clip_alpha,
    fuse_scores,
    rank_pool,
    recall_at_k,
    route,
)
from regime_router.selector import select_all, train_selector
from regime_router.text_analysis import ROUTER_FEATURE_NAMES, router_features


@pytest.fixture(scope="module")
def trained(routing_world):
    ds, store, annotations = routing_world
    selector_model = train_selector(annotations)
    X, y = build_router_training(ds, store, selector_model)
    router_model = train(X, y)
    return ds, store, selector_model, router_model


# ---------------------------------------------------------------------------
# clip_alpha


def test_clip_alpha_reference_points():
    assert clip_alpha(0.0) == 0.1
    assert clip_alpha(0.2) == pytest.approx(0.1)
    assert clip_alpha(0.5) == pytest.approx(0.25)
    assert clip_alpha(0.9) == pytest.approx(0.45)
    assert clip_alpha(1.0) == 0.5


@given(st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=200)
def test_clip_alpha_range(p):
    a = clip_alpha(p)
    assert 0.1 <= a <= 0.5


@given(
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_clip_alpha_monotone(p1, p2):
    lo, hi = sorted((p1, p2))
    assert clip_alpha(lo) <= clip_alpha(hi)


# ---------------------------------------------------------------------------
# fuse_scores


def test_fuse_scores_endpoints_and_midpoint():
    q = [0.9, 0.1, 0.5]
    b = [0.1, 0.9, 0.5]
    assert np.array_equal(fuse_scores(q, b, 0.0), np.asarray(q))
    assert np.array_equal(fuse_scores(q, b, 1.0), np.asarray(b))
    mid = fuse_scores(q, b, 0.25)
    assert mid == pytest.approx([0.75 * 0.9 + 0.25 * 0.1, 0.75 * 0.1 + 0.25 * 0.9, 0.5])


def test_fuse_scores_validation():
    with pytest.raises(ValueError, match="length mismatch"):
        fuse_scores([1.0], [1.0, 2.0], 0.5)
    with pytest.raises(ValueError, match="finite"):
        fuse_scores([np.nan], [1.0], 0.5)
    with pytest.raises(ValueError, match="alpha"):
        fuse_scores([1.0], [1.0], 1.5)


@given(
    st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=1, max_size=8),
    st.floats(min_value=0.0, max_value=1.0),
    st.data(),
)
@settings(max_examples=150)
def test_fuse_scores_bounded_by_inputs(q, alpha, data):
    b = data.draw(
        st.lists(
            st.floats(min_value=-1.0, max_value=1.0), min_size=len(q), max_size=len(q)
        )
    )
    fused = fuse_scores(q, b, alpha)
    for f, qi, bi in zip(fused, q, b):
        assert min(qi, bi) - 1e-12 <= f <= max(qi, bi) + 1e-12


# ---------------------------------------------------------------------------
# RoutingConfig


def test_routing_config_defaults():
    cfg = RoutingConfig()
    assert cfg.tau == 0.5
    assert cfg.alpha == 0.25
    assert cfg.alpha_mode == "frozen"
    assert cfg.k == 5


@pytest.mark.parametrize(
    "kwargs",
    [
        {"alpha": -0.1},
        {"alpha": 1.1},
        {"tau": -0.2},
        {"tau": 1.5},
        {"alpha_mode": "adaptive"},
        {"tau": float("nan")},
        {"k": 0},
    ],
)
def test_routing_config_validation(kwargs):
    with pytest.raises(ValueError):
        RoutingConfig(**kwargs)


# ---------------------------------------------------------------------------
# rank_pool / recall


def tiny_store():
    e = np.eye(3)
    return VectorStore(
        3,
        {
            ("q::q1", "query"): e[0],
            ("t::brel", "query"): e[1],
            ("p::a", "doc"): e[0],
            ("p::b", "doc"): e[1],
            ("p::c", "doc"): (e[0] + e[1]) / np.sqrt(2),
        },
    )


def test_rank_pool_orders_by_score_then_id():
    store = VectorStore(
        2,
        {
            ("q::q1", "query"): np.array([1.0, 0.0]),
            ("p::z", "doc"): np.array([1.0, 0.0]),
            ("p::a", "doc"): np.array([1.0, 0.0]),
            ("p::m", "doc"): np.array([0.0, 1.0]),
        },
    )
    ranked = rank_pool(store, "q::q1", ["z", "m", "a"], k=2)
    assert [cid for cid, _ in ranked.entries] == ["a", "z", "m"]
    assert ranked.k == 2
    assert ranked.rank_of("z") == 2
    assert ranked.rank_of("ghost") is None


def test_rank_pool_fused_changes_order():
    store = tiny_store()
    by_q = rank_pool(store, "q::q1", ["a", "b", "c"], k=3)
    assert [cid for cid, _ in by_q.entries][0] == "a"
    fused = rank_pool(store, "q::q1", ["a", "b", "c"], k=3, brel_side_id="t::brel", alpha=1.0)
    assert [cid for cid, _ in fused.entries][0] == "b"


def test_rank_pool_missing_candidate():
    store = tiny_store()
    with pytest.raises(MissingEmbeddingError):
        rank_pool(store, "q::q1", ["a", "ghost"], k=2)


def test_recall_at_k():
    ranked = RankedList(entries=(("a", 0.9), ("b", 0.8), ("c", 0.7)), k=2)
    assert recall_at_k(ranked, "a", k=1)
    assert not recall_at_k(ranked, "c", k=2)
    assert recall_at_k(ranked, "c", k=3)
    assert not recall_at_k(ranked, "ghost", k=3)


# ---------------------------------------------------------------------------
# route on the constructed world


def _routed(ds, queries, selector_model, router_model, cfg=None):
    """``route`` over the queries' one feature matrix, and their B_rel ("" where the selector abstains)."""
    pairs = [(ds.passage(q.bridge_id), q.question) for q in queries]
    selections = select_all(pairs, selector_model)
    b_rels = ["" if s.abstained else s.chosen[0] for s in selections]
    X = [router_features(q, b_rel, bridge.body).as_vector() for (bridge, q), b_rel in zip(pairs, b_rels)]
    return route(X, [bool(b) for b in b_rels], router_model, cfg), b_rels


def test_route_actions_split_by_question_type(trained):
    ds, store, selector_model, router_model = trained
    cfg = RoutingConfig()
    (p_union, union, alpha), b_rels = _routed(ds, ds.queries, selector_model, router_model, cfg)
    assert p_union.shape == union.shape == alpha.shape == (len(ds.queries),)
    assert np.all((0.0 <= p_union) & (p_union <= 1.0))
    assert np.all(alpha == cfg.alpha)
    assert all(b_rels)
    compositional = np.array([q.qtype == "compositional" for q in ds.queries])
    assert np.array_equal(union, compositional)


def test_route_p_weighted_alpha(trained):
    ds, store, selector_model, router_model = trained
    cfg = RoutingConfig(alpha_mode="p_weighted")
    (p_union, _, alpha), _ = _routed(ds, ds.queries[1:2], selector_model, router_model, cfg)
    assert alpha[0] == pytest.approx(clip_alpha(p_union[0]))
    assert np.array_equal(clip_alpha(p_union), [clip_alpha(float(p)) for p in p_union])


def test_route_fallback_on_abstention(trained):
    ds, store, selector_model, router_model = trained
    q = ds.queries[1]
    hollow = Passage(id="hollow", title="Hollow", body="   ")
    ds = Dataset(name="hollow", queries=(dataclasses.replace(q, bridge_id="hollow"), q),
                 passages={**ds.passages, "hollow": hollow})
    (p_union, union, alpha), b_rels = _routed(ds, ds.queries, selector_model, router_model)
    # The abstaining row is forced to Q; the same question with its bridge goes to Union.
    assert b_rels[0] == "" and b_rels[1]
    assert p_union[0] == 0.0 and p_union[1] > 0.5
    assert union.tolist() == [False, True]
    assert alpha[0] == RoutingConfig().alpha


def test_rank_pool_under_both_actions(trained):
    ds, store, selector_model, router_model = trained
    cfg = RoutingConfig()
    comparison = ds.queries[0]
    compositional = ds.queries[1]
    (_, union, alpha), b_rels = _routed(ds, [comparison, compositional], selector_model, router_model, cfg)
    assert union.tolist() == [False, True]

    ranked = rank_pool(store, f"q::{comparison.id}", comparison.pool_ids, cfg.k)
    assert recall_at_k(ranked, comparison.gold_id, cfg.k)

    ranked_q = rank_pool(store, f"q::{compositional.id}", compositional.pool_ids, cfg.k)
    ranked_u = rank_pool(
        store,
        f"q::{compositional.id}",
        compositional.pool_ids,
        cfg.k,
        brel_side_id=text_key(b_rels[1]),
        alpha=alpha[1],
    )
    assert not recall_at_k(ranked_q, compositional.gold_id, cfg.k)
    assert recall_at_k(ranked_u, compositional.gold_id, cfg.k)


# ---------------------------------------------------------------------------
# self-supervised labels (build_router_training)


def test_labels_follow_construction(trained):
    ds, store, selector_model, _ = trained
    _, y = build_router_training(ds, store, selector_model)
    for q, label in zip(ds.queries, y):
        assert label == (1.0 if q.qtype == "compositional" else 0.0)


def test_label_abstention_is_zero(trained):
    ds, store, selector_model, _ = trained
    q = ds.queries[1]
    assert q.qtype == "compositional"
    hollow = Passage(id="hollow", title="Hollow", body="   ")
    abstaining = Dataset(
        name="hollow",
        queries=(dataclasses.replace(q, bridge_id="hollow"),),
        passages={**ds.passages, "hollow": hollow},
    )
    _, y = build_router_training(abstaining, store, selector_model)
    assert y.tolist() == [0.0]


# ---------------------------------------------------------------------------
# build_router_training


def test_build_router_training_shapes_and_balance(trained):
    ds, store, selector_model, _ = trained
    X, y = build_router_training(ds, store, selector_model)
    assert X.shape == (len(ds.queries), len(ROUTER_FEATURE_NAMES))
    assert y.shape == (len(ds.queries),)
    assert set(np.unique(y)) == {0.0, 1.0}
    # Constructed world alternates comparison/compositional evenly.
    assert int(y.sum()) == len(ds.queries) // 2
    for i, q in enumerate(ds.queries):
        assert y[i] == (1.0 if q.qtype == "compositional" else 0.0)

"""Batched protocols against per-query references, bit for bit.

Every protocol scores its queries' pools as one matrix per side. The
references here rank each query on its own with ``rank_pool`` and score it
with ``VectorStore.score``, the way a single query is ranked, on a world
built to hit the edges: pools of mixed sizes, a gold passage outside its
pool, a pool holding only the gold, a bridge the selector abstains on, and
passages that share a vector, so that scores tie and ids break the ties.
A query's outputs must not depend on the other queries in its batch:
shuffled, cut short or run alone, each trace row and margin record stays
the same to the bit.
"""

from __future__ import annotations

import collections
import dataclasses
import json

import numpy as np
import pytest

from regime_router import experiments, router_retrieval, text_analysis
from regime_router.cli import EXIT_OK, enumerate_embedding_ids, main
from regime_router.corpus import Dataset, Passage, Query, save_dataset
from regime_router.embedding_store import VectorStore, passage_key, question_key, save_vectors, text_key
from regime_router.experiments import (
    compute_margins,
    knockout_variants,
    run_ablations,
    run_knockout,
    run_main_eval,
    run_oracle_analysis,
    run_regime_agreement,
    threshold_sweep,
)
from regime_router.linear_model import train
from regime_router.router_retrieval import (
    ACTION_Q,
    ACTION_UNION,
    RoutingConfig,
    build_router_training,
    rank_pool,
    recall_at_k,
    route,
)
from regime_router.selector import oracle_label, select_all, train_selector
from regime_router.stats import MarginRecord, calibration_fit, mcnemar, per_query_auc, separation_margin
from regime_router.text_analysis import router_features, split_sentences

N_QUERIES = 28
GOLD_OUTSIDE = 3  # gold not in its pool
GOLD_ONLY = 5  # pool holds only the gold
HOLLOW = 7  # bridge without sentences: the selector abstains
K = 3


def build_parity_world(seed: int = 11):
    rng = np.random.default_rng(seed)
    dim = 6
    passages = {
        f"p{j:02d}": Passage(id=f"p{j:02d}", title=f"Place {j}", body=f"Record {j} of the registry.")
        for j in range(30)
    }
    queries = []
    for i in range(N_QUERIES):
        gold = f"p{rng.integers(30):02d}"
        others = [p for p in rng.permutation(sorted(passages)).tolist() if p != gold]
        pool = others[: int(rng.integers(1, 9))]
        if i == GOLD_ONLY:
            pool = [gold]
        elif i != GOLD_OUTSIDE:
            pool.insert(int(rng.integers(len(pool) + 1)), gold)
        title = passages[gold].title
        sentences = [
            f"The vault of Kara Voss stands near {title if i % 3 else 'Old Harbor'}.",
            f"Miro Dane sailed from Port Ellis in year {i}.",
            f"Little else is written about precinct {i}.",
        ][: 1 + i % 3]
        body = "   " if i == HOLLOW else " ".join(sentences)
        passages[f"b{i:02d}"] = Passage(id=f"b{i:02d}", title=f"Bridge {i}", body=body)
        question = (
            f"Did {title} open earlier or later than the ferry line?"
            if i % 2
            else "Which vault keeps the relic carried from the old harbor?"
        )
        queries.append(
            Query(
                id=f"q{i:02d}", question=question, qtype="comparison" if i % 2 else "compositional",
                bridge_id=f"b{i:02d}", gold_id=gold, pool_ids=tuple(pool), hop2_title=title,
            )
        )
    ds = Dataset(name="parity", queries=tuple(queries), passages=passages)
    # Eight distinct passage vectors among thirty passages: scores tie often.
    shared = rng.normal(size=(8, dim))
    entries = {}
    for sid, _, mode in enumerate_embedding_ids(ds):
        if mode == "doc":
            entries[(sid, mode)] = shared[int(sid[4:]) % 8] if sid.startswith("p::p") else rng.normal(size=dim)
        else:
            entries[(sid, mode)] = rng.normal(size=dim)
    return ds, VectorStore(dim, entries)


@pytest.fixture(scope="module")
def parity(routing_world):
    rds, rstore, annotations = routing_world
    selector = train_selector(annotations)
    X, y = build_router_training(rds, rstore, selector)
    router = train(X, y)
    ds, store = build_parity_world()
    selections = select_all([(ds.passage(q.bridge_id), q.question) for q in ds.queries], selector)
    assert selections[HOLLOW].abstained
    assert sum(s.abstained for s in selections) == 1
    # A threshold inside the spread of p_union, so that both actions occur.
    p = sorted(d.p_union for d in _routed_alone(ds, selections, router, RoutingConfig()) if not d.fallback)
    cfg = RoutingConfig(tau=p[len(p) // 2], alpha=0.4, k=K)
    return ds, store, selector, router, selections, cfg


Routed = collections.namedtuple("Routed", "b_rel p_union action alpha_used fallback features")


def _routed_alone(ds, selections, router, cfg):
    """Each query routed on its own: ``route`` over its one-row feature matrix."""
    routed = []
    for q, selection in zip(ds.queries, selections):
        b_rel = "" if selection.abstained else selection.chosen[0]
        features = router_features(q.question, b_rel, ds.passage(q.bridge_id).body)
        (p,), (union,), (alpha,) = route([features.as_vector()], [bool(b_rel)], router, cfg)
        routed.append(Routed(b_rel, float(p), ACTION_UNION if union else ACTION_Q, float(alpha), not b_rel, features))
    return routed


def _ranked(store, q, side=None, alpha=0.0):
    brel = None if side is None else text_key(side)
    return rank_pool(store, question_key(q.id), q.pool_ids, K, brel_side_id=brel, alpha=alpha)


def _hit(store, q, side=None, alpha=0.0) -> bool:
    return recall_at_k(_ranked(store, q, side, alpha), q.gold_id, K)


def _gold_and_pool(store, side_id, q):
    candidates = [passage_key(q.gold_id)] + [passage_key(p) for p in q.pool_ids if p != q.gold_id]
    scores = store.score(side_id, "query", candidates)
    return float(scores[0]), scores[1:]


@pytest.mark.parametrize("alpha_mode", ["frozen", "p_weighted"])
def test_eval_traces_match_per_query_ranking(parity, alpha_mode):
    ds, store, selector, router, selections, cfg = parity
    cfg = dataclasses.replace(cfg, alpha_mode=alpha_mode)
    report = run_main_eval(ds, store, selector, router, cfg)
    actions = set()
    for q, d, t in zip(ds.queries, _routed_alone(ds, selections, router, cfg), report.traces):
        ranked_q = _ranked(store, q)
        ranked_u = _ranked(store, q, d.b_rel, d.alpha_used) if d.b_rel else ranked_q
        assert (t.query_id, t.p_union, t.alpha_used, t.action, t.fallback, t.b_rel) == (
            q.id, d.p_union, d.alpha_used, d.action, d.fallback, d.b_rel,
        )
        assert t.rank_q == ranked_q.rank_of(q.gold_id)
        assert t.rank_union == ranked_u.rank_of(q.gold_id)
        assert t.hit_q == recall_at_k(ranked_q, q.gold_id, K)
        assert t.hit_union == recall_at_k(ranked_u, q.gold_id, K)
        actions.add(t.action)
    assert report.traces[GOLD_OUTSIDE].rank_q is None and not report.traces[GOLD_OUTSIDE].hit_q
    assert report.traces[GOLD_ONLY].rank_q == 1
    assert report.traces[HOLLOW].fallback
    assert len(actions) == 2
    assert len({len(q.pool_ids) for q in ds.queries}) > 3

    wins = sum(t.hit_routed and not t.hit_q for t in report.traces)
    losses = sum(t.hit_q and not t.hit_routed for t in report.traces)
    assert (report.wins, report.losses, report.mcnemar_p) == (wins, losses, mcnemar(wins, losses))


def test_eval_calibration_matches_per_query_margins(parity):
    ds, store, selector, router, _, cfg = parity
    margins, aucs = [], []
    for q in ds.queries:
        gold, pool = _gold_and_pool(store, question_key(q.id), q)
        if pool.size:
            margins.append(separation_margin(gold, pool))
            aucs.append(per_query_auc(gold, pool))
    fit = calibration_fit(margins, aucs)
    assert len(aucs) == N_QUERIES - 1
    assert run_main_eval(ds, store, selector, router, cfg).calibration == {
        "r_squared": fit.r_squared,
        "inversion_accuracy": fit.inversion_accuracy,
        "n": fit.n,
        "degenerate": fit.degenerate,
    }


def test_margins_match_per_query_reference(parity):
    ds, store, selector, _, selections, _ = parity
    expected = []
    for q, selection in zip(ds.queries, selections):
        gold_q, pool_q = _gold_and_pool(store, question_key(q.id), q)
        if pool_q.size == 0:
            expected.append(MarginRecord(q.id, 0.0, 0.0, 0.0, 0.0, 0.5, 0.5, degenerate=True))
            continue
        s_q, sigma_q = separation_margin(gold_q, pool_q)
        auc_q = per_query_auc(gold_q, pool_q)
        if selection.abstained:
            expected.append(MarginRecord(q.id, s_q, 0.0, sigma_q, 0.0, auc_q, 0.5, degenerate=True))
            continue
        gold_b, pool_b = _gold_and_pool(store, text_key(selection.chosen[0]), q)
        s_b, sigma_b = separation_margin(gold_b, pool_b)
        expected.append(
            MarginRecord(q.id, s_q, s_b, sigma_q, sigma_b, auc_q, per_query_auc(gold_b, pool_b),
                         degenerate=(sigma_q == 0.0 or sigma_b == 0.0))
        )
    records = compute_margins(ds, store, selector)
    assert records == expected
    assert records[GOLD_ONLY].degenerate and records[HOLLOW].degenerate


def test_knockout_matches_per_query_reference(parity):
    ds, store, selector, _, selections, _ = parity
    with pytest.raises(ValueError, match="no distractor pool"):
        run_knockout(ds, store, selector)
    keep = [i for i in range(N_QUERIES) if i != GOLD_ONLY]
    sub = Dataset(name="parity", queries=tuple(ds.queries[i] for i in keep), passages=ds.passages)
    expected = []
    for i in keep:
        q, selection = ds.queries[i], selections[i]
        if selection.abstained:
            continue
        body = ds.passage(q.bridge_id).body
        variants = knockout_variants(body, split_sentences(body), selection.chosen[1])
        if variants is not None:
            expected.append(
                (q.id, *(per_query_auc(*_gold_and_pool(store, text_key(v), q)) for v in variants))
            )
    report = run_knockout(sub, store, selector)
    assert [(r.query_id, r.auc_full, r.auc_rel, r.auc_minus) for r in report.records] == expected
    assert report.excluded == len(keep) - len(expected) > 1


@pytest.mark.parametrize("alpha_mode", ["frozen", "p_weighted"])
def test_ablations_match_per_query_reference(parity, alpha_mode):
    ds, store, selector, router, selections, cfg = parity
    cfg = dataclasses.replace(cfg, alpha_mode=alpha_mode)
    counts = [0] * 6
    for q, d in zip(ds.queries, _routed_alone(ds, selections, router, cfg)):
        hit_q = _hit(store, q)
        full = _hit(store, q, ds.passage(q.bridge_id).body, 0.5)
        if d.fallback:
            row = (hit_q, full, hit_q, hit_q, hit_q, hit_q)
        else:
            half = _hit(store, q, d.b_rel, 0.5)
            union = d.action == ACTION_UNION
            ne = d.features.b_new_entity_count >= 1 and d.features.q_comparison_word == 0
            row = (
                hit_q, full, half,
                half if union else hit_q,
                _hit(store, q, d.b_rel, d.alpha_used) if union else hit_q,
                _hit(store, q, d.b_rel, cfg.alpha) if ne else hit_q,
            )
        counts = [c + h for c, h in zip(counts, row)]
    rows = run_ablations(ds, store, selector, router, cfg).rows
    assert [r.r_at_5 for r in rows] == [c / N_QUERIES for c in counts]


def test_oracle_matches_per_query_reference(parity):
    ds, store, selector, router, selections, cfg = parity
    hits = 0
    for q, d in zip(ds.queries, _routed_alone(ds, selections, router, cfg)):
        bridge = ds.passage(q.bridge_id)
        hit_q = _hit(store, q)
        idx = oracle_label(bridge, q.hop2_title)
        if idx is None:
            routed = d.action == ACTION_UNION and d.b_rel
            hits += _hit(store, q, d.b_rel, d.alpha_used) if routed else hit_q
            continue
        brel = split_sentences(bridge.body)[idx].text
        (_,), (union,), (alpha,) = route([router_features(q.question, brel, bridge.body).as_vector()], [True], router, cfg)
        hits += _hit(store, q, brel, alpha) if union else hit_q
    assert run_oracle_analysis(ds, store, selector, router, cfg).oracle_selector == hits / N_QUERIES


def test_sweep_matches_per_query_reference(parity):
    ds, store, selector, router, selections, cfg = parity
    taus = (0.0, cfg.tau, 0.9, 2.0)
    decisions = _routed_alone(ds, selections, router, cfg)
    expected = []
    for tau in taus:
        union = [not d.fallback and d.p_union >= tau for d in decisions]
        hits = sum(
            _hit(store, q, d.b_rel, d.alpha_used) if u else _hit(store, q)
            for q, d, u in zip(ds.queries, decisions, union)
        )
        expected.append((hits / N_QUERIES, sum(union) / N_QUERIES))
    report = threshold_sweep(ds, store, selector, router, taus, cfg)
    assert [(r.r_at_5, r.union_rate) for r in report.rows] == expected


@pytest.mark.parametrize("alpha_mode", ["frozen", "p_weighted"])
def test_outputs_do_not_depend_on_the_batch(parity, alpha_mode):
    ds, store, selector, router, _, cfg = parity
    cfg = dataclasses.replace(cfg, alpha_mode=alpha_mode)

    def rows(queries):
        """Each query's eval trace row and margin record, by query id, down to the bit."""
        sub = dataclasses.replace(ds, queries=tuple(queries))
        traces = run_main_eval(sub, store, selector, router, cfg).traces
        margins = compute_margins(sub, store, selector)
        return {t.query_id: repr((t.to_json_dict(), m)) for t, m in zip(traces, margins, strict=True)}

    whole = rows(ds.queries)
    order = np.random.default_rng(5).permutation(N_QUERIES)
    assert rows([ds.queries[i] for i in order]) == whole
    for n in (1, 2, 3, 7):
        assert rows(ds.queries[:n]) == {q.id: whole[q.id] for q in ds.queries[:n]}
    alone = {}
    for q in ds.queries:
        alone.update(rows([q]))
    assert alone == whole


def test_router_labels_match_per_query_reference(parity):
    ds, store, selector, _, selections, cfg = parity
    expected = []
    for q, selection in zip(ds.queries, selections):
        if selection.abstained:
            expected.append(0.0)
            continue
        ranked_q = _ranked(store, q)
        ranked_u = _ranked(store, q, selection.chosen[0], cfg.alpha)
        expected.append(float(recall_at_k(ranked_u, q.gold_id, K) and not recall_at_k(ranked_q, q.gold_id, K)))
    _, y = build_router_training(ds, store, selector, cfg)
    assert y.tolist() == expected


def test_empty_dataset(parity):
    _, store, selector, router, _, cfg = parity
    empty = Dataset(name="empty", queries=(), passages={})
    with pytest.raises(ValueError, match="no queries"):
        run_main_eval(empty, store, selector, router, cfg)
    with pytest.raises(ValueError, match="no queries"):
        run_ablations(empty, store, selector, router, cfg)
    with pytest.raises(ValueError, match="no usable queries"):
        run_knockout(empty, store, selector)
    assert compute_margins(empty, store, selector) == []
    assert len(build_router_training(empty, store, selector, cfg)[1]) == 0


def _count_splits(monkeypatch) -> collections.Counter:
    """Count every sentence split from now on, by the text split."""
    splits = collections.Counter()
    split = text_analysis._split

    def counted(text, lex):
        splits[text] += 1
        return split(text, lex)

    monkeypatch.setattr(text_analysis, "_split", counted)
    return splits


PROTOCOLS = {
    "eval": lambda ds, store, sel, rtr, cfg: run_main_eval(ds, store, sel, rtr, cfg),
    "sweep": lambda ds, store, sel, rtr, cfg: threshold_sweep(ds, store, sel, rtr, (0.0, 1.0), cfg),
    "ablations": lambda ds, store, sel, rtr, cfg: run_ablations(ds, store, sel, rtr, cfg),
    "margins": lambda ds, store, sel, rtr, cfg: compute_margins(ds, store, sel),
    "regime_agreement": lambda ds, store, sel, rtr, cfg: run_regime_agreement(ds, store, sel),
    "router_training": lambda ds, store, sel, rtr, cfg: build_router_training(ds, store, sel, cfg),
    "knockout": lambda ds, store, sel, rtr, cfg: run_knockout(ds, store, sel),
    "oracle": lambda ds, store, sel, rtr, cfg: run_oracle_analysis(ds, store, sel, rtr, cfg),
}


@pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
def test_each_query_is_analysed_once(parity, monkeypatch, protocol):
    ds, store, selector, router, _, cfg = parity
    # Knockout needs a distractor pool for every query it scores.
    ds = dataclasses.replace(ds, queries=tuple(q for i, q in enumerate(ds.queries) if i != GOLD_ONLY))
    calls = {"select_all": 0, "build": 0, "score_rows": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(router_retrieval, "select_all", counted("select_all", router_retrieval.select_all))
    monkeypatch.setattr(experiments, "select_all", counted("select_all", experiments.select_all))
    monkeypatch.setattr(router_retrieval, "score_rows", counted("score_rows", router_retrieval.score_rows))
    build = router_retrieval.PoolIndex.build.__func__
    monkeypatch.setattr(router_retrieval.PoolIndex, "build", classmethod(counted("build", build)))
    splits = _count_splits(monkeypatch)
    PROTOCOLS[protocol](ds, store, selector, router, cfg)
    # The oracle scores its oracle sentences for the queries it routes to Union, a second matrix.
    assert calls == {"select_all": 1, "build": 1, "score_rows": 2 if protocol == "oracle" else 1}
    # Each distinct bridge body and question is split once; no sentence is split again.
    texts = {ds.passage(q.bridge_id).body for q in ds.queries} | {q.question for q in ds.queries}
    assert splits == collections.Counter(texts)


def test_train_splits_each_text_once(routing_world, tmp_path, monkeypatch):
    # Selector training and router labels share one batch of profiles: each
    # distinct body and question is split once by the whole command.
    ds, store, annotations = routing_world
    save_dataset(ds, tmp_path / "data")
    save_vectors(store, tmp_path / "store.bin")
    annotated = ds.queries[: len(ds.queries) // 2]  # router labels cover more queries than selector training
    (tmp_path / "annotations.jsonl").write_text(
        "".join(
            json.dumps({"bridge_id": q.bridge_id, "question_id": q.id, "gold_sentence_index": ann.gold_sentence_index})
            + "\n"
            for q, ann in zip(annotated, annotations)
        ),
        encoding="utf-8",
    )
    splits = _count_splits(monkeypatch)
    argv = ["train", "--dataset", str(tmp_path / "data"), "--store", str(tmp_path / "store.bin"),
            "--annotations", str(tmp_path / "annotations.jsonl"), "--out-dir", str(tmp_path / "models")]
    assert main(argv) == EXIT_OK
    texts = {ds.passage(q.bridge_id).body for q in ds.queries} | {q.question for q in ds.queries}
    assert splits == collections.Counter(texts)


def test_embedding_ids_split_each_bridge_once(parity, monkeypatch):
    ds = parity[0]
    splits = _count_splits(monkeypatch)
    ids = enumerate_embedding_ids(ds)
    assert splits == collections.Counter({ds.passage(q.bridge_id).body for q in ds.queries})
    # Every sentence and every single-sentence-removed body is listed.
    assert {text_key(s.text) for q in ds.queries for s in split_sentences(ds.passage(q.bridge_id).body)} <= {
        sid for sid, _, _ in ids
    }

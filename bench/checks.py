"""Correctness checks on one round's outputs, made apart from the program.

Expected values come from the generated world (its files, its truth
and its plan), from the stand-in's own vector function, and from numpy
and scipy. The program is used only to load its artifacts: the store
through ``load_vectors``, everything else as JSON. The checks test
recomputations and properties of the method, never a copy of an
earlier output, so a change that truly corrects the method still
passes them.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np
from scipy import optimize, stats

from standin import standin_vector
from worlds import PREFIXES, TRAIN_QUERIES

K = 5
ALPHA = 0.25
TAU = 0.5
L2_PENALTY = 1.0
ROUTING_FLAGS = ["--alpha", str(ALPHA), "--tau", str(TAU), "--alpha-mode", "frozen", "--k", str(K)]


class CheckFailed(Exception):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _doc_text(p: dict) -> str:
    return f"{p['title']}\n{p['body']}" if p["title"] else p["body"]


def _text_id(text: str) -> str:
    return "t::" + hashlib.sha256(text.encode("utf-8")).hexdigest()[:24]


class World:
    """The generated inputs, read as plain JSON."""

    def __init__(self, root: Path) -> None:
        self.root = root
        self.spec = json.loads((root / "spec.json").read_text(encoding="utf-8"))
        self.plan = json.loads((root / "plan.json").read_text(encoding="utf-8"))
        self.truth = json.loads((root / "truth.json").read_text(encoding="utf-8"))
        self.queries = _jsonl(root / "full" / "queries.jsonl")
        self.passages = {p["id"]: p for p in _jsonl(root / "full" / "passages.jsonl")}
        self._vectors: dict[tuple[str, str], np.ndarray] = {}

    def vector(self, text: str, mode: str) -> np.ndarray:
        """The stand-in's vector for ``text`` as the store holds it: unit norm, float32."""
        key = (text, mode)
        vec = self._vectors.get(key)
        if vec is None:
            raw = standin_vector(PREFIXES[mode] + text, self.spec["dim"], self.plan)
            vec = (raw / np.linalg.norm(raw)).astype("<f4").astype(float)
            vec /= np.linalg.norm(vec)
            self._vectors[key] = vec
        return vec

    def embedding_texts(self, dataset: str) -> dict[tuple[str, str], str]:
        """Every (store id, mode) the pipeline can request, with its text.

        Questions and passages by id; for each bridge its body, each
        sentence, and the body with each sentence removed.
        """
        queries = _jsonl(self.root / dataset / "queries.jsonl")
        out = {(f"q::{q['id']}", "query"): q["question"] for q in queries}
        for p in _jsonl(self.root / dataset / "passages.jsonl"):
            out[(f"p::{p['id']}", "doc")] = _doc_text(p)
        for q in queries:
            sents = self.truth[q["id"]]["sentences"]
            body = " ".join(sents)
            require(body == self.passages[q["bridge_id"]]["body"], f"bridge {q['bridge_id']}: body != sentences")
            out[(_text_id(body), "query")] = body
            for i, sent in enumerate(sents):
                out[(_text_id(sent), "query")] = sent
                if len(sents) > 1:
                    minus = " ".join(sents[:i] + sents[i + 1:])
                    out[(_text_id(minus), "query")] = minus
        return out


# ---------------------------------------------------------------------------
# Embed


def check_embed(world: World, store_path: Path, dry_run_stdout: str, incr_received: list[str]) -> None:
    from regime_router.embedding_store import load_vectors

    full = world.embedding_texts("full")
    store = load_vectors(store_path)
    keys = set(store.keys())
    missing, extra = set(full) - keys, keys - set(full)
    require(not missing and not extra,
            f"store ids differ from the world's texts: {len(missing)} missing, {len(extra)} extra")
    worst = max(float(np.max(np.abs(store.get(sid, mode) - world.vector(text, mode))))
                for (sid, mode), text in full.items())
    require(worst <= 1e-6, f"a stored vector differs from the stand-in's by {worst:.2e}")

    counts = dict(line.split(": ", 1) for line in dry_run_stdout.splitlines() if ": " in line)
    require(int(counts.get("texts needed", -1)) == len(store),
            f"embed --dry-run counts {counts.get('texts needed')} texts, the store holds {len(store)}")
    require(int(counts.get("missing embeddings", -1)) == 0, "embed --dry-run reports missing embeddings")

    head = world.embedding_texts("head")
    cached = {PREFIXES[mode] + text for (_, mode), text in head.items()}
    tail = {PREFIXES[mode] + text for (sid, mode), text in full.items() if (sid, mode) not in head}
    require(set(incr_received) == tail - cached,
            f"the incremental embed sent {len(set(incr_received))} distinct texts; "
            f"the tail has {len(tail - cached)} uncached")


# ---------------------------------------------------------------------------
# Eval


def _pairwise_agreement(pred: np.ndarray, obs: np.ndarray) -> float:
    """Share of pairs i < j whose pred and obs differences have the same nonzero sign."""
    agree = counted = 0
    n = pred.size
    for i in range(n - 1):
        dp = np.sign(pred[i] - pred[i + 1:])
        do = np.sign(obs[i] - obs[i + 1:])
        usable = (dp != 0) & (do != 0)
        counted += int(usable.sum())
        agree += int((usable & (dp == do)).sum())
    return agree / counted if counted else 0.0


def check_eval(world: World, report: dict, trace: list[dict]) -> None:
    queries = world.queries
    require([t["query_id"] for t in trace] == [q["id"] for q in queries], "trace rows differ from the queries")
    hits = 0
    margins, aucs = [], []
    for q, t in zip(queries, trace):
        docs = np.stack([world.vector(_doc_text(world.passages[p]), "doc") for p in q["pool_ids"]])
        scores = docs @ world.vector(q["question"], "query")
        order = sorted(range(len(scores)), key=lambda j: (-scores[j], q["pool_ids"][j]))
        g = q["pool_ids"].index(q["gold_id"])
        rank = order.index(g) + 1
        require(t["rank_gold_q"] == rank, f"{q['id']}: rank_gold_q {t['rank_gold_q']}, recomputed {rank}")
        require(t["hit_q"] == (rank <= K), f"{q['id']}: hit_q disagrees with rank {rank}")
        regime = world.truth[q["id"]]["regime"]  # Q- or B-dominant, or a trap that Q finds
        require(t["hit_q"] == (regime != "B"), f"{q['id']}: planted regime {regime} but hit_q={t['hit_q']}")
        hits += rank <= K
        pool = np.delete(scores, g)
        margins.append((scores[g] - pool.mean(), pool.std()))
        aucs.append((np.sum(pool < scores[g]) + 0.5 * np.sum(pool == scores[g])) / pool.size)

    n = len(queries)
    require(report["q_only_r_at_k"] == hits / n, f"q_only_r_at_k {report['q_only_r_at_k']} != {hits / n}")

    wins = sum(t["hit_routed"] and not t["hit_q"] for t in trace)
    losses = sum(t["hit_q"] and not t["hit_routed"] for t in trace)
    require((report["wins"], report["losses"]) == (wins, losses), "wins/losses differ from the trace")
    expected_p = stats.binomtest(wins, wins + losses, 0.5).pvalue if wins + losses else 1.0
    require(math.isclose(report["mcnemar"]["p_exact"], expected_p, rel_tol=1e-9, abs_tol=1e-300),
            f"p_exact {report['mcnemar']['p_exact']} != binomtest {expected_p}")

    s = np.array([m for m, _ in margins])
    sigma = np.array([sd for _, sd in margins])
    obs = np.array(aucs)
    pred = np.where(sigma > 0, stats.norm.cdf(s / np.where(sigma > 0, sigma, 1.0)), 0.5)
    r2 = 1.0 - np.sum((obs - pred) ** 2) / np.sum((obs - obs.mean()) ** 2)
    cal = report["calibration"]
    require(math.isclose(cal["r_squared"], r2, rel_tol=1e-9, abs_tol=1e-9),
            f"calibration r^2 {cal['r_squared']} != recomputed {r2}")
    inversion = _pairwise_agreement(pred, obs)
    require(abs(cal["inversion_accuracy"] - inversion) <= 1e-6,
            f"inversion accuracy {cal['inversion_accuracy']} != recomputed {inversion}")


# ---------------------------------------------------------------------------
# Train


def _fit_logistic(X: np.ndarray, y: np.ndarray, l2: float):
    """L2-penalized logistic regression on standardized columns, bias unpenalized."""
    mu, sd = X.mean(axis=0), X.std(axis=0)
    free = sd > 0
    Z = (X[:, free] - mu[free]) / sd[free]
    A = np.hstack([Z, np.ones((Z.shape[0], 1))])
    penalty = np.r_[np.full(Z.shape[1], l2), 0.0]

    def loss(theta):
        eta = A @ theta
        p = stats.logistic.cdf(eta)
        value = np.sum(np.logaddexp(0.0, eta) - y * eta) + 0.5 * np.sum(penalty * theta**2)
        return value, A.T @ (p - y) + penalty * theta

    def hess(theta):
        p = stats.logistic.cdf(A @ theta)
        return (A * (p * (1 - p))[:, None]).T @ A + np.diag(penalty)

    res = optimize.minimize(loss, np.zeros(A.shape[1]), jac=True, hess=hess, method="trust-exact",
                            options={"gtol": 1e-11})
    # A gradient of 1e-6, summed over ~900 rows, moves p by about 1e-9.
    grad = float(np.linalg.norm(res.jac))
    require(grad <= 1e-6, f"reference solver stopped at gradient {grad:.1e}: {res.message}")

    def predict(Xn: np.ndarray) -> np.ndarray:
        return stats.logistic.cdf(np.hstack([(Xn[:, free] - mu[free]) / sd[free], np.ones((len(Xn), 1))]) @ res.x)

    return predict


def check_train(trace: list[dict]) -> None:
    names = sorted(trace[0]["features"])
    X = np.array([[t["features"][k] for k in names] for t in trace])
    y = np.array([t["hit_union"] and not t["hit_q"] for t in trace[:TRAIN_QUERIES]], dtype=float)
    require(0 < y.sum() < len(y), "router training labels hold a single class")
    predict = _fit_logistic(X[:TRAIN_QUERIES], y, L2_PENALTY)
    routed = [i for i, t in enumerate(trace) if not t["fallback"]]
    p = predict(X[routed])
    worst = float(np.max(np.abs(p - np.array([trace[i]["p_union"] for i in routed]))))
    require(worst <= 1e-6, f"p_union differs from an independent fit by {worst:.2e}")


# ---------------------------------------------------------------------------
# Experiments


def _experiment(out_dir: Path, name: str) -> dict:
    found = sorted(out_dir.glob(f"{name.replace('-', '_')}_*.json"))
    require(len(found) == 1, f"expected one {name} report, found {len(found)}")
    return json.loads(found[0].read_text(encoding="utf-8"))


def check_experiments(out_dir: Path, report: dict, trace: list[dict], synthetic: bool) -> None:
    sweep = sorted(_experiment(out_dir, "threshold-sweep")["rows"], key=lambda r: r["tau"])
    rates = [r["union_rate"] for r in sweep]
    require(all(a >= b for a, b in zip(rates, rates[1:])), f"union_rate rises with tau: {rates}")
    at_tau = [r for r in sweep if r["tau"] == TAU]
    require(len(at_tau) == 1 and math.isclose(at_tau[0]["r_at_5"], report["routed_r_at_k"], abs_tol=1e-12),
            "the sweep row at tau=0.5 differs from eval's routed R@5")

    rows = {r["condition"]: r for r in _experiment(out_dir, "ablations")["rows"]}
    require(math.isclose(rows["q_only"]["r_at_5"], report["q_only_r_at_k"], abs_tol=1e-12),
            "the ablations q_only row differs from eval")

    oracle = _experiment(out_dir, "oracle")["r_at_k"]["oracle_router"]
    expected = sum(max(t["hit_q"], t["hit_union"]) for t in trace) / len(trace)
    require(math.isclose(oracle, expected, abs_tol=1e-12), f"oracle_router {oracle} != {expected}")

    agg = _experiment(out_dir, "mixture")["aggregate"]
    require(math.isclose(agg["q_minus_b_weighted"], agg["q_minus_b_micro"], abs_tol=1e-12),
            "weighted and micro mixture aggregates differ")

    records = _experiment(out_dir, "knockout")["per_query"]
    require(len(records) > 0, "knockout used no query")
    mean = {v: float(np.mean([r[f"auc_{v}"] for r in records])) for v in ("full", "rel", "minus")}
    require(mean["full"] > mean["minus"] and mean["rel"] > mean["minus"],
            f"knockout mean AUCs do not separate: {mean}")

    if synthetic:
        fit = _experiment(out_dir, "synthetic-calibration")
        require(fit["r_squared"] >= 0.99 and fit["inversion_accuracy"] >= 0.99,
                f"synthetic calibration r^2 {fit['r_squared']}, inversion {fit['inversion_accuracy']}")


def check_round(world: World, rd: Path, dry_run_stdout: str, incr_received: list[str], synthetic: bool) -> None:
    """Every check on the artifacts of round directory ``rd``."""
    check_embed(world, rd / "store.bin", dry_run_stdout, incr_received)
    report = json.loads((rd / "eval" / "eval_full.json").read_text(encoding="utf-8"))
    trace = _jsonl(rd / "eval" / "eval_full_trace.jsonl")
    check_eval(world, report, trace)
    check_train(trace)
    check_experiments(rd / "exp", report, trace, synthetic)

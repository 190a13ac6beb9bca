"""Per-layer spans recorded from outside the program.

``install`` wraps every public function of every layer module, at every
module-level binding (the modules import each other's names, so a
function is rebound wherever it appears), plus the public methods that
do a layer's work. Each span records its calls, its inclusive time and
its self time: the inclusive time minus the part its child spans cover.
No source file is changed; the wrappers live only in the traced process.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import statistics
import time
from collections import Counter

LAYERS = (
    "corpus",
    "embedding_store",
    "text_analysis",
    "selector",
    "linear_model",
    "router_retrieval",
    "stats",
    "experiments",
    "cli",
)
# Methods that do a layer's work and are reached only through the object.
METHODS = {
    "embedding_store": {
        "VectorStore": ("__init__", "score", "merged"),
        "EmbeddingClient": ("__init__", "fetch"),
    },
}


class Tracer:
    def __init__(self) -> None:
        self._stack = [0.0]  # time covered by child spans, per open span
        self.spans: dict[str, list] = {}  # "layer.name" -> [calls, inclusive_s, self_s]
        self.counts: Counter = Counter()
        self.vectors_read: set[str] = set()

    def wrap(self, span: str, fn, after=None):
        """``fn`` timed as ``span``; ``after(args, kwargs)`` runs outside the clock."""
        stats = self.spans.setdefault(span, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                covered = stack.pop()
                stack[-1] += elapsed
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - covered
                if after is not None:
                    after(args, kwargs)

        return traced

    # Counters read from the call's arguments, never from its internals.
    def _after_load(self, args, kwargs):
        self.counts["embedding_store.load_bytes"] += os.path.getsize(args[0])

    def _after_save(self, args, kwargs):
        self.counts["embedding_store.save_bytes"] += os.path.getsize(args[1])

    def _after_score(self, args, kwargs):
        _, text_id, mode, candidates = args[:4]
        self.counts["embedding_store.candidates_scored"] += len(candidates)
        self.vectors_read.add(f"{mode}|{text_id}")
        self.vectors_read.update(f"doc|{c}" for c in candidates)

    def _after_fetch(self, args, kwargs):
        self.counts["embedding_store.fetch_texts"] += len(args[1])

    def install(self) -> None:
        import regime_router

        modules = {name: importlib.import_module(f"regime_router.{name}") for name in LAYERS}
        hooks = {
            "embedding_store.load_vectors": self._after_load,
            "embedding_store.save_vectors": self._after_save,
            "embedding_store.VectorStore.score": self._after_score,
            "embedding_store.EmbeddingClient.fetch": self._after_fetch,
        }
        replaced: dict[int, object] = {}
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                span = f"{layer}.{name}"
                replaced[id(obj)] = self.wrap(span, obj, hooks.get(span))
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    span = f"{layer}.{cls_name}.{meth}"
                    setattr(cls, meth, self.wrap(span, getattr(cls, meth), hooks.get(span)))
        for mod in (regime_router, *modules.values()):
            for name, obj in list(vars(mod).items()):
                if id(obj) in replaced:
                    setattr(mod, name, replaced[id(obj)])

    def report(self) -> dict:
        return {
            "spans": self.spans,
            "counts": dict(self.counts),
            "vectors_read": sorted(self.vectors_read),
        }


# ---------------------------------------------------------------------------
# Per-layer metrics from the traced steps of each round

_QUERY_STEPS = ("eval", "exp_")  # the commands that analyse every query


def _round_metrics(steps: dict, n_queries: int) -> dict[str, tuple[float, str]]:
    cli_steps = {k: v for k, v in steps.items() if isinstance(v, dict) and "trace" in v}
    spans: dict[str, list] = {}
    per_query: dict[str, list] = {}
    counts: Counter = Counter()
    read: set[str] = set()
    for name, result in cli_steps.items():
        for span, (calls, incl, self_s) in result["trace"]["spans"].items():
            for table in (spans, per_query) if name.startswith(_QUERY_STEPS) else (spans,):
                acc = table.setdefault(span, [0, 0.0, 0.0])
                acc[0] += calls
                acc[1] += incl
                acc[2] += self_s
        counts.update(result["trace"]["counts"])
        if not name.startswith("embed"):
            read.update(result["trace"]["vectors_read"])

    def calls(span, table=spans):
        return table.get(span, [0, 0.0, 0.0])[0]

    def incl(span):
        return spans.get(span, [0, 0.0, 0.0])[1]

    def self_of(layer):
        return sum(v[2] for k, v in spans.items() if k.split(".", 1)[0] == layer)

    provider_calls = sum(steps[k]["provider"]["calls"] for k in ("embed_cold", "embed_incr"))
    texts_sent = sum(steps[k]["provider"]["texts"] for k in ("embed_cold", "embed_incr"))
    store_size = int(steps["embed_incr"]["stdout"].split("store size: ")[1].split()[0])
    e2e = sum(v["wall_s"] for v in cli_steps.values())
    es, ta, rr, ex = "embedding_store", "text_analysis", "router_retrieval", "experiments"
    m = {
        "corpus.load_s": (incl("corpus.load_dataset"), "s"),
        f"{es}.load_s": (incl(f"{es}.load_vectors"), "s"),
        f"{es}.load_bytes": (counts[f"{es}.load_bytes"], "bytes"),
        f"{es}.score_calls": (calls(f"{es}.VectorStore.score"), "count"),
        f"{es}.candidates_scored": (counts[f"{es}.candidates_scored"], "count"),
        f"{es}.score_s": (incl(f"{es}.VectorStore.score"), "s"),
        f"{es}.fetch_s": (incl(f"{es}.EmbeddingClient.fetch"), "s"),
        f"{es}.provider_calls": (provider_calls, "count"),
        f"{es}.texts_sent": (texts_sent, "count"),
        f"{es}.cache_hits": (counts[f"{es}.fetch_texts"] - texts_sent, "count"),
        f"{es}.merge_s": (incl(f"{es}.VectorStore.merged"), "s"),
        f"{es}.save_s": (incl(f"{es}.save_vectors"), "s"),
        f"{es}.save_bytes": (counts[f"{es}.save_bytes"], "bytes"),
        f"{es}.vectors_used_share": (len(read) / store_size, "ratio"),
        f"{ta}.split_calls": (calls(f"{ta}.split_sentences"), "count"),
        f"{ta}.tokenize_calls": (calls(f"{ta}.tokenize"), "count"),
        f"{ta}.tokenize_per_query": (calls(f"{ta}.tokenize", per_query) / n_queries, "calls/query"),
        f"{ta}.tokenize_s": (incl(f"{ta}.tokenize"), "s"),
        f"{ta}.router_features_s": (incl(f"{ta}.router_features"), "s"),
        f"{ta}.sentence_features_calls": (calls(f"{ta}.sentence_features"), "count"),
        f"{ta}.sentence_features_s": (incl(f"{ta}.sentence_features"), "s"),
        "selector.select_calls": (calls("selector.select"), "count"),
        "selector.selects_per_query": (calls("selector.select", per_query) / n_queries, "calls/query"),
        "selector.select_s": (incl("selector.select"), "s"),
        "selector.train_s": (incl("selector.train_selector"), "s"),
        "linear_model.fits": (calls("linear_model.train"), "count"),
        "linear_model.train_s": (incl("linear_model.train"), "s"),
        "linear_model.predict_calls": (calls("linear_model.predict_proba")
                                       + calls("linear_model.predict_proba_matrix"), "count"),
        "linear_model.predict_s": (incl("linear_model.predict_proba")
                                   + incl("linear_model.predict_proba_matrix"), "s"),
        f"{rr}.route_calls": (calls(f"{rr}.route"), "count"),
        f"{rr}.route_s": (incl(f"{rr}.route"), "s"),
        f"{rr}.rank_pool_calls": (calls(f"{rr}.rank_pool"), "count"),
        f"{rr}.rank_pool_s": (incl(f"{rr}.rank_pool"), "s"),
        f"{rr}.router_training_s": (incl(f"{rr}.build_router_training"), "s"),
        "stats.mcnemar_s": (incl("stats.mcnemar"), "s"),
        "stats.calibration_s": (incl("stats.calibration_fit"), "s"),
        "stats.auc_calls": (calls("stats.per_query_auc"), "count"),
        "stats.margin_calls": (calls("stats.separation_margin"), "count"),
        "stats.kernel_s": (self_of("stats"), "s"),
        f"{ex}.main_eval_s": (incl(f"{ex}.run_main_eval"), "s"),
        f"{ex}.margins_s": (incl(f"{ex}.compute_margins"), "s"),
        f"{ex}.knockout_s": (incl(f"{ex}.run_knockout"), "s"),
        f"{ex}.oracle_s": (incl(f"{ex}.run_oracle_analysis"), "s"),
        f"{ex}.ablations_s": (incl(f"{ex}.run_ablations"), "s"),
        f"{ex}.sweep_s": (incl(f"{ex}.threshold_sweep"), "s"),
        "cli.embed_s": (incl("cli.cmd_embed"), "s"),
        "cli.train_s": (incl("cli.cmd_train"), "s"),
        "cli.eval_s": (incl("cli.cmd_eval"), "s"),
        "cli.experiment_s": (incl("cli.cmd_experiment"), "s"),
        "cli.self_s": (self_of("cli"), "s"),
        "cli.artifact_bytes": (steps["artifact_bytes"], "bytes"),
        "standin.call_s": (incl("standin.call"), "s"),
        "trace.e2e_s": (e2e, "s"),
    }
    for layer in LAYERS[:-1]:
        if layer != "stats":  # reported as stats.kernel_s
            m[f"{layer}.self_s"] = (self_of(layer), "s")
    covered = sum(self_of(layer) for layer in (*LAYERS, "standin"))
    m["trace.self_share"] = (covered / e2e, "ratio")
    return m


def layer_metrics(rounds: list[dict], n_queries: int) -> dict:
    """Each per-layer metric as its median over rounds."""
    per_round = [_round_metrics(r, n_queries) for r in rounds]
    return {
        name: {"value": statistics.median(m[name][0] for m in per_round), "unit": unit}
        for name, (_, unit) in per_round[0].items()
    }

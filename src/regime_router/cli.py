"""Operator entry point: ingest, embed, train, eval, experiment.

Exit codes: 0 success, 1 runtime failure (provider, training), 2 usage or
parse error, 3 referential-integrity error. Config precedence is CLI flag
over config file over built-in default, and every report embeds the
effective config. Reports are byte-identical across reruns when
--deterministic is set.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import logging
import math
import sys
from dataclasses import asdict, dataclass, fields
from datetime import datetime, timezone
from pathlib import Path

from .atomic import atomic_write
from .corpus import (
    DanglingIdError,
    Dataset,
    DatasetParseError,
    MissingRankError,
    filter_hop1_correct,
    load_dataset,
    load_hop1_ranks,
)
from .embedding_store import (
    DimensionMismatchError,
    EmbedProviderConfig,
    EmbeddingClient,
    MissingEmbeddingError,
    NonFiniteVectorError,
    ProviderError,
    TransportError,
    VectorFormatError,
    VectorStore,
    load_vectors,
    passage_key,
    question_key,
    save_vectors,
    text_key,
)
from .experiments import (
    DEFAULT_SWEEP_TAUS,
    knockout_variants,
    run_ablations,
    run_knockout,
    run_main_eval,
    run_mixture,
    run_oracle_analysis,
    run_regime_agreement,
    synthetic_calibration,
    threshold_sweep,
)
from .linear_model import (
    FoldError,
    NonConvergenceError,
    SingleClassError,
    TrainConfig,
    cross_fit,
    load_model,
    save_model,
)
from .router_retrieval import RoutingConfig, build_router_training
from .selector import AnnotationError, load_annotations, train_selector
from .text_analysis import split_sentences

logger = logging.getLogger("regime_router")

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2
EXIT_INTEGRITY = 3


class UsageError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Config


@dataclass(frozen=True)
class RunConfig:
    alpha: float = 0.25
    tau: float = 0.5
    alpha_mode: str = "frozen"
    k: int = 5
    parallelism: int = 1
    l2_penalty: float = 1.0
    cv_folds: int = 5
    endpoint: str = ""
    model_name: str = ""
    auth_env_var: str = ""
    query_prefix: str = ""
    doc_prefix: str = ""
    timeout: float = 30.0
    max_retries: int = 3
    batch_size: int = 64
    retry_base_delay: float = 0.5

    def routing(self) -> RoutingConfig:
        return RoutingConfig(tau=self.tau, alpha=self.alpha, alpha_mode=self.alpha_mode, k=self.k)

    def provider(self) -> EmbedProviderConfig:
        return EmbedProviderConfig(
            endpoint=self.endpoint,
            model_name=self.model_name,
            mode_instructions={"query": self.query_prefix, "doc": self.doc_prefix},
            auth_env_var=self.auth_env_var,
            timeout=self.timeout,
            max_retries=self.max_retries,
            batch_size=self.batch_size,
            parallelism=self.parallelism,
            retry_base_delay=self.retry_base_delay,
        )

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "tau": self.tau,
            "alpha_mode": self.alpha_mode,
            "k": self.k,
            "parallelism": self.parallelism,
            "l2_penalty": self.l2_penalty,
            "cv_folds": self.cv_folds,
            "model_name": self.model_name,
        }


# The JSON types each annotated field type accepts; a bool, an int to
# Python, is refused apart. Ints are not coerced to floats: the effective
# config and the experiment file-name hash keep the values as given.
_FIELD_TYPES = {"float": ((int, float), "a number"), "int": ((int,), "an integer"),
                "str": ((str,), "a string")}


_MINIMUMS = {"cv_folds": 2, "l2_penalty": 0, "parallelism": 1, "batch_size": 1, "max_retries": 0,
             "retry_base_delay": 0}


def merge_config(args: argparse.Namespace) -> RunConfig:
    """CLI flag > config file > built-in default, each value checked against its field."""
    merged: dict = {}
    config_path = getattr(args, "config", None)
    if config_path:
        try:
            loaded = json.loads(Path(config_path).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise UsageError(f"config file {config_path}: {exc}") from exc
        if not isinstance(loaded, dict):
            raise UsageError(f"config file {config_path}: expected a JSON object")
        unknown = sorted(set(loaded) - {f.name for f in fields(RunConfig)})
        if unknown:
            raise UsageError(f"config file {config_path}: unknown keys {unknown}")
        merged.update(loaded)
    for f in fields(RunConfig):
        flag = getattr(args, f.name, None)
        if flag is not None:
            merged[f.name] = flag
        value = merged.get(f.name, f.default)
        types, kind = _FIELD_TYPES[f.type]
        if isinstance(value, bool) or not isinstance(value, types):
            raise UsageError(f"{f.name} must be {kind}, got {value!r}")
        if isinstance(value, float) and not math.isfinite(value):
            raise UsageError(f"{f.name} must be finite, got {value!r}")
    cfg = RunConfig(**merged)
    for name, low in _MINIMUMS.items():
        if getattr(cfg, name) < low:
            raise UsageError(f"{name} must be >= {low}, got {getattr(cfg, name)}")
    if cfg.timeout <= 0:
        raise UsageError(f"timeout must be > 0, got {cfg.timeout}")
    try:
        cfg.routing()
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    return cfg


# ---------------------------------------------------------------------------
# Shared loading helpers


def _load_dataset(path: str) -> Dataset:
    ds = load_dataset(path)
    logger.info("loaded dataset %s: %d queries, %d passages", ds.name, len(ds.queries), len(ds.passages))
    return ds


def _apply_hop1_filter(ds: Dataset, args: argparse.Namespace, k: int) -> Dataset:
    ranks_path = getattr(args, "hop1_ranks", None)
    if not ranks_path:
        return ds
    ranks = load_hop1_ranks(ranks_path)
    filtered = filter_hop1_correct(ds, ranks, k=k)
    logger.info("hop1 filter kept %d of %d queries", len(filtered.queries), len(ds.queries))
    return filtered


def _load_inputs(args: argparse.Namespace, cfg: RunConfig, routes: bool) -> tuple:
    """(dataset, store, selector), and the router when ``routes``, for eval and the dataset experiments."""
    ds = _apply_hop1_filter(_load_dataset(args.dataset), args, cfg.k)
    inputs = (ds, load_vectors(args.store), load_model(args.selector_model))
    return (*inputs, load_model(args.router_model)) if routes else inputs


# Artifacts are written to a temporary file renamed over the old one, so a
# failed run never leaves a torn artifact behind, and a NaN fails the run.
def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with atomic_write(path, encoding="utf-8") as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n")


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with atomic_write(path, newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _config_hash(payload: dict) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode("utf-8")).hexdigest()[:8]


def _stamped(payload: dict, cfg: RunConfig, args: argparse.Namespace) -> dict:
    """``payload`` with the effective config and, unless --deterministic, the time of the run."""
    payload["effective_config"] = cfg.to_dict()
    if not args.deterministic:
        payload["generated_at"] = datetime.now(timezone.utc).isoformat()
    return payload


# ---------------------------------------------------------------------------
# ingest


def cmd_ingest(args: argparse.Namespace) -> int:
    cfg = merge_config(args)
    ds = _load_dataset(args.dataset)
    print(f"queries: {len(ds.queries)}")
    print(f"passages: {len(ds.passages)}")
    by_type: dict[str, int] = {}
    for q in ds.queries:
        by_type[q.qtype] = by_type.get(q.qtype, 0) + 1
    for qtype in sorted(by_type):
        print(f"  {qtype}: {by_type[qtype]}")
    if getattr(args, "hop1_ranks", None):
        filtered = _apply_hop1_filter(ds, args, cfg.k)
        print(f"hop1-correct at k={cfg.k}: {len(filtered.queries)}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# embed


def enumerate_embedding_ids(ds: Dataset) -> list[tuple[str, str, str]]:
    """(store id, text, mode) for every text any pipeline stage can request.

    The enumeration is a superset: all bridge sentences (any selector's
    choice is among them) and all single-sentence-removed bodies (any
    knockout selection is among them), so a store built from it serves
    eval, ablations, sweeps, oracle analysis, and knockout without a
    second provider pass.
    """
    out: dict[tuple[str, str], str] = {}
    for q in ds.queries:
        out[(question_key(q.id), "query")] = q.question
    for pid, passage in ds.passages.items():
        out[(passage_key(pid), "doc")] = passage.doc_text
    # Each distinct body split once, in first-seen order: a set's order would change with the hash seed.
    for body in dict.fromkeys(ds.passage(q.bridge_id).body for q in ds.queries):
        out[(text_key(body), "query")] = body
        sents = split_sentences(body)
        for i, sent in enumerate(sents):
            out[(text_key(sent.text), "query")] = sent.text
            variants = knockout_variants(body, sents, i)
            if variants is not None:
                minus = variants[2]
                out[(text_key(minus), "query")] = minus
    return [(sid, text, mode) for (sid, mode), text in sorted(out.items())]


def cmd_embed(args: argparse.Namespace) -> int:
    cfg = merge_config(args)
    ds = _load_dataset(args.dataset)
    needed = enumerate_embedding_ids(ds)

    store_path = Path(args.store)
    existing: VectorStore | None = None
    if store_path.exists():
        existing = load_vectors(store_path)
    missing = [
        (sid, text, mode)
        for sid, text, mode in needed
        if existing is None or (sid, mode) not in existing
    ]
    print(f"texts needed: {len(needed)}")
    print(f"missing embeddings: {len(missing)}")
    if args.dry_run:
        return EXIT_OK
    if not missing:
        return EXIT_OK

    if not cfg.endpoint:
        raise UsageError("an endpoint is required to fetch embeddings (set --endpoint or config)")
    client = EmbeddingClient(cfg.provider(), cache_path=args.cache)
    new_entries: dict[tuple[str, str], object] = {}
    dim = existing.dim if existing is not None else None
    for mode in ("query", "doc"):
        batch = [(sid, text) for sid, text, m in missing if m == mode]
        if not batch:
            continue
        vectors = client.fetch([text for _, text in batch], mode, expected_dim=dim)
        if dim is None and vectors:
            dim = vectors[0].shape[0]
        for (sid, _), vec in zip(batch, vectors):
            new_entries[(sid, mode)] = vec
    if dim is None:
        raise ProviderError("provider returned no vectors")
    store = existing.merged(new_entries) if existing is not None else VectorStore(dim, new_entries)
    save_vectors(store, store_path)
    print(f"provider calls: {client.calls}")
    print(f"store size: {len(store)}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# train


def cmd_train(args: argparse.Namespace) -> int:
    cfg = merge_config(args)
    ds = _load_dataset(args.dataset)
    ds = _apply_hop1_filter(ds, args, cfg.k)
    store = load_vectors(args.store)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    train_cfg = TrainConfig(l2_penalty=cfg.l2_penalty)
    profiles: dict = {}  # selector training and router labels profile each text once between them

    if args.selector_model:
        selector = load_model(args.selector_model)
        if args.annotations:
            logger.warning("prebuilt selector supplied; annotations file ignored")
        selector_source = f"artifact:{args.selector_model}"
    else:
        if not args.annotations:
            raise UsageError("either --annotations or --selector-model is required")
        annotated = load_annotations(
            args.annotations, ds.passages, {q.id: q.question for q in ds.queries}
        )
        selector = train_selector(annotated, train_cfg, profiles)
        selector_source = f"annotations:{args.annotations} ({len(annotated)} bridges)"
    selector_path = out_dir / "selector.json"
    save_model(selector, selector_path)

    X, y = build_router_training(ds, store, selector, cfg.routing(), profiles)
    result = cross_fit(X, y, k=cfg.cv_folds, cfg=train_cfg)
    router_path = out_dir / "router.json"
    save_model(result.full_model, router_path)

    diagnostics = {
        "n": int(X.shape[0]),
        "fold_sizes": list(result.fold_sizes),
        "label_positive_rate": float(y.mean()),
        "oof_mean_p_union": sum(result.out_of_fold_probs) / len(result.out_of_fold_probs),
        "selector_source": selector_source,
        "effective_config": cfg.to_dict(),
    }
    _write_json(out_dir / "train_diagnostics.json", diagnostics)
    print(f"selector: {selector_path}")
    print(f"router: {router_path}")
    print(f"fold sizes: {list(result.fold_sizes)}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# eval


def cmd_eval(args: argparse.Namespace) -> int:
    cfg = merge_config(args)
    ds, store, selector, router = _load_inputs(args, cfg, routes=True)
    report = run_main_eval(ds, store, selector, router, cfg.routing())

    # The trace is the per-query record. Its rows are encoded before any
    # file is replaced, so a NaN anywhere leaves the old artifacts in place.
    trace = [json.dumps(t.to_json_dict(), sort_keys=True, allow_nan=False) + "\n" for t in report.traces]
    out_dir = Path(args.out_dir)
    report_path = out_dir / f"eval_{ds.name}.json"
    _write_json(report_path, _stamped(report.to_json_dict(), cfg, args))
    with atomic_write(out_dir / f"eval_{ds.name}_trace.jsonl", encoding="utf-8") as fh:
        fh.writelines(trace)
    _write_csv(out_dir / f"eval_{ds.name}.csv", *report.csv_rows())

    print(f"report: {report_path}")
    print(
        f"q_only={report.q_only_r_at_k:.4f} routed={report.routed_r_at_k:.4f} "
        f"delta={report.delta:+.4f} union_rate={report.union_rate:.3f} "
        f"p_exact={report.mcnemar_p['p_exact']:.4g}"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# experiment


# Each dataset protocol: whether it routes, and so needs --router-model, and
# its call on the loaded inputs, the routing config and the sweep thresholds.
DATASET_PROTOCOLS = {
    "knockout": (False, lambda inputs, routing, taus: run_knockout(*inputs)),
    "oracle": (True, lambda inputs, routing, taus: run_oracle_analysis(*inputs, routing)),
    "ablations": (True, lambda inputs, routing, taus: run_ablations(*inputs, routing)),
    "threshold-sweep": (True, lambda inputs, routing, taus: threshold_sweep(*inputs, taus, routing)),
    "mixture": (False, lambda inputs, routing, taus: run_mixture(*inputs)),
    "regime-agreement": (False, lambda inputs, routing, taus: run_regime_agreement(*inputs)),
}
EXPERIMENT_NAMES = (*DATASET_PROTOCOLS, "synthetic-calibration")


def _parse_taus(text: str) -> tuple[float, ...]:
    """Comma-separated finite thresholds; one above 1 sweeps to all-Q."""
    taus = []
    for item in text.split(","):
        try:
            tau = float(item)
        except ValueError:
            raise UsageError(f"--taus: {item!r} is not a number") from None
        if not math.isfinite(tau):
            raise UsageError(f"--taus: {item!r} is not finite")
        taus.append(tau)
    return tuple(taus)


def cmd_experiment(args: argparse.Namespace) -> int:
    cfg = merge_config(args)
    name = args.name
    if name not in EXPERIMENT_NAMES:
        raise UsageError(f"unknown experiment {name!r}; valid names: {', '.join(EXPERIMENT_NAMES)}")
    taus = DEFAULT_SWEEP_TAUS if args.taus is None else _parse_taus(args.taus)

    if name == "synthetic-calibration":
        if not (math.isfinite(args.sigma) and args.sigma > 0 and args.n >= 3 and args.pool_size >= 2):
            raise UsageError(f"need a finite --sigma > 0, --n >= 3 and --pool-size >= 2; got {args.sigma}, "
                             f"{args.n} and {args.pool_size}")
        fit = synthetic_calibration(n=args.n, pool_size=args.pool_size, sigma=args.sigma, seed=args.seed)
        result_json = asdict(fit)
        csv_payload = (["metric", "value"], [[k, result_json[k]] for k in ("r_squared", "inversion_accuracy", "n")])
        ds_name = "synthetic"
    else:
        routes, protocol = DATASET_PROTOCOLS[name]
        if not (args.dataset and args.store and args.selector_model and (args.router_model or not routes)):
            flags = "--dataset, --store, --selector-model" + (", --router-model" if routes else "")
            raise UsageError(f"experiment {name!r} needs {flags}")
        inputs = _load_inputs(args, cfg, routes)
        report = protocol(inputs, cfg.routing(), taus)
        result_json = report.to_json_dict()
        csv_payload = report.csv_rows()
        ds_name = inputs[0].name

    result_json["experiment"] = name
    stem = f"{name.replace('-', '_')}_{ds_name}_{_config_hash(cfg.to_dict())}"
    out_dir = Path(args.out_dir)
    json_path = out_dir / f"{stem}.json"
    _write_json(json_path, _stamped(result_json, cfg, args))
    _write_csv(out_dir / f"{stem}.csv", *csv_payload)
    print(f"report: {json_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser wiring


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file (CLI flags override it)")
    p.add_argument("--alpha", type=float, help="fusion weight on the relation side")
    p.add_argument("--tau", type=float, help="routing threshold on p_union")
    p.add_argument("--alpha-mode", dest="alpha_mode", choices=("frozen", "p_weighted"))
    p.add_argument("--k", type=int, help="recall cutoff")
    p.add_argument("--parallelism", type=int, help="concurrent provider requests during embed")
    p.add_argument("--l2-penalty", dest="l2_penalty", type=float)
    p.add_argument("--cv-folds", dest="cv_folds", type=int)


def _add_provider_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--endpoint", help="embedding provider URL")
    p.add_argument("--model-name", dest="model_name")
    p.add_argument("--auth-env-var", dest="auth_env_var", help="env var holding the bearer token")
    p.add_argument("--query-prefix", dest="query_prefix")
    p.add_argument("--doc-prefix", dest="doc_prefix")
    p.add_argument("--timeout", type=float)
    p.add_argument("--max-retries", dest="max_retries", type=int)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--retry-base-delay", dest="retry_base_delay", type=float)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="regime-router",
        description="Two-hop retrieval with regime routing and relation-sentence fusion.",
    )
    parser.add_argument("--verbose", action="store_true", help="log at INFO level")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="validate dataset files and print summary counts")
    p.add_argument("--dataset", required=True, help="directory with queries.jsonl and passages.jsonl")
    p.add_argument("--hop1-ranks", dest="hop1_ranks", help="hop-1 gold ranks JSONL for filtering")
    _add_config_flags(p)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("embed", help="materialize every text the pipeline can request")
    p.add_argument("--dataset", required=True)
    p.add_argument("--store", required=True, help="vector store file (created or extended)")
    p.add_argument("--cache", help="append-only binary cache file of raw provider vectors")
    p.add_argument("--dry-run", dest="dry_run", action="store_true",
                   help="count missing embeddings without network access")
    _add_config_flags(p)
    _add_provider_flags(p)
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("train", help="train selector and router, write artifacts")
    p.add_argument("--dataset", required=True)
    p.add_argument("--store", required=True)
    p.add_argument("--annotations", help="relation-sentence annotations JSONL")
    p.add_argument("--selector-model", dest="selector_model",
                   help="prebuilt selector artifact (skips selector training)")
    p.add_argument("--hop1-ranks", dest="hop1_ranks")
    p.add_argument("--out-dir", dest="out_dir", required=True)
    _add_config_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="Q-only vs routed recall with significance")
    p.add_argument("--dataset", required=True)
    p.add_argument("--store", required=True)
    p.add_argument("--selector-model", dest="selector_model", required=True)
    p.add_argument("--router-model", dest="router_model", required=True)
    p.add_argument("--hop1-ranks", dest="hop1_ranks")
    p.add_argument("--out-dir", dest="out_dir", required=True)
    p.add_argument("--deterministic", action="store_true",
                   help="omit the timestamp so reruns are byte-identical")
    _add_config_flags(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("experiment", help="run one named analysis protocol")
    p.add_argument("name", help=f"one of: {', '.join(EXPERIMENT_NAMES)}")
    p.add_argument("--dataset")
    p.add_argument("--store")
    p.add_argument("--selector-model", dest="selector_model")
    p.add_argument("--router-model", dest="router_model")
    p.add_argument("--hop1-ranks", dest="hop1_ranks")
    p.add_argument("--out-dir", dest="out_dir", default=".")
    p.add_argument("--deterministic", action="store_true")
    p.add_argument("--taus", help="comma-separated thresholds for threshold-sweep")
    p.add_argument("--n", type=int, default=10_000, help="synthetic-calibration query count")
    p.add_argument("--pool-size", dest="pool_size", type=int, default=200)
    p.add_argument("--sigma", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    _add_config_flags(p)
    p.set_defaults(func=cmd_experiment)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DatasetParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as exc:
        print(f"missing file: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DanglingIdError, MissingRankError, AnnotationError) as exc:
        print(f"integrity error: {exc}", file=sys.stderr)
        return EXIT_INTEGRITY
    except (
        VectorFormatError,
        DimensionMismatchError,
        NonFiniteVectorError,
        MissingEmbeddingError,
        TransportError,
        ProviderError,
        SingleClassError,
        NonConvergenceError,
        FoldError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except ValueError as exc:
        # Residual precondition failures (e.g. every margin degenerate).
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())

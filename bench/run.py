"""Pipeline benchmark: embed -> train -> eval -> experiments on a seeded world.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The world for (workload, seed) is generated once and cached under
``.bench_work/worlds``; generation is never timed. A round runs every
command of the workload once, each in its own process: a cold embed of
the world minus its tail, an incremental embed of the full world,
train, eval, the experiments, and the set-up loads. Rounds repeat, whole,
until S seconds of rounds have passed (at least one), and each metric is
the median over rounds. The outputs of the first round are checked
against computations made apart from the program; every later round
must reproduce them byte for byte. The last line of standard output is
one JSON object: correct, attempted, failed, metrics. With --trace 1 the
commands run under per-layer tracing and the per-layer metrics are
printed instead of the end-to-end ones.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

sys.path[:0] = [str(BENCH), str(SRC)]

from checks import L2_PENALTY, ROUTING_FLAGS, CheckFailed, World, check_round  # noqa: E402
from tracing import layer_metrics  # noqa: E402
from worlds import PREFIXES, WorldSpec, materialize  # noqa: E402

DATASET_EXPERIMENTS = ("knockout", "oracle", "ablations", "threshold-sweep", "mixture", "regime-agreement")
SETUP_REPEATS = 2


@dataclass(frozen=True)
class Workload:
    spec: WorldSpec
    synthetic_calibration: bool = False


WORKLOADS = {
    "long-bridge": Workload(
        WorldSpec(queries=930, tail=40, pool=10, corpus=600, dim=64, sentences=(4, 7), long_text=True)
    ),
    "wide-pool": Workload(
        WorldSpec(queries=930, tail=39, pool=60, corpus=700, dim=768, sentences=(2, 3), long_text=False,
                  queries_per_bridge=3)
    ),
    "many-queries": Workload(
        WorldSpec(queries=2200, tail=100, pool=10, corpus=1500, dim=32, sentences=(2, 2), long_text=False),
        synthetic_calibration=True,
    ),
}


class StepFailed(RuntimeError):
    def __init__(self, message: str, index: int = 0) -> None:
        super().__init__(message)
        self.index = index


def _child_env() -> dict:
    env = dict(os.environ)
    # One BLAS thread: every step stays single-threaded on a small host.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_step(name: str, spec: dict, workdir: Path) -> tuple[dict, str]:
    """Run one step in a fresh process; return its result and stdout."""
    spec = {**spec, "src": str(SRC), "result": str(workdir / f"{name}.result.json")}
    spec_path = workdir / f"{name}.spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), str(spec_path)],
        capture_output=True, text=True, env=_child_env(), timeout=170,
    )
    if proc.returncode != 0:
        raise StepFailed(f"{name}: child exited {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(Path(spec["result"]).read_text(encoding="utf-8"))
    if result["rc"] != 0:
        raise StepFailed(f"{name}: regime-router exited {result['rc']}\n{proc.stderr[-2000:]}")
    return result, proc.stdout


def provider_flags() -> list[str]:
    return [
        "--endpoint", "standin://local", "--model-name", "standin-v1",
        "--query-prefix", PREFIXES["query"], "--doc-prefix", PREFIXES["doc"],
    ]


def round_steps(wl: Workload, world: Path, rd: Path, seed: int, trace: bool) -> list[tuple[str, dict]]:
    """The commands of one round, in order, as (step name, child spec)."""
    store, cache = str(rd / "store.bin"), str(rd / "cache.json")
    models = rd / "models"
    sel, rtr = str(models / "selector.json"), str(models / "router.json")
    standin = {"plan": str(world / "plan.json"), "dim": wl.spec.dim}
    full = str(world / "full")
    steps = [
        ("embed_cold", {"step": "cli", "standin": standin, "argv": [
            "embed", "--dataset", str(world / "head"), "--store", store, "--cache", cache, *provider_flags()]}),
        ("embed_incr", {"step": "cli", "standin": {**standin, "keep_received": True}, "argv": [
            "embed", "--dataset", full, "--store", store, "--cache", cache, *provider_flags()]}),
        ("train", {"step": "cli", "argv": [
            "train", "--dataset", str(world / "train"), "--store", store,
            "--annotations", str(world / "annotations.jsonl"), "--out-dir", str(models),
            "--l2-penalty", str(L2_PENALTY), *ROUTING_FLAGS]}),
        ("eval", {"step": "cli", "argv": [
            "eval", "--dataset", full, "--store", store, "--selector-model", sel,
            "--router-model", rtr, "--out-dir", str(rd / "eval"), "--deterministic", *ROUTING_FLAGS]}),
    ]
    for name in DATASET_EXPERIMENTS:
        steps.append((f"exp_{name}", {"step": "cli", "argv": [
            "experiment", name, "--dataset", full, "--store", store, "--selector-model", sel,
            "--router-model", rtr, "--out-dir", str(rd / "exp"), "--deterministic", *ROUTING_FLAGS]}))
    if wl.synthetic_calibration:
        steps.append(("exp_synthetic-calibration", {"step": "cli", "argv": [
            "experiment", "synthetic-calibration", "--seed", str(seed),
            "--out-dir", str(rd / "exp"), "--deterministic"]}))
    # The short steps (train, eval, set-up) are sampled at three points of
    # the round, about ten seconds apart, and their metrics take the median,
    # which ignores a stretch in which the host ran fast or slow. A traced
    # round runs each command once, so that its counts describe one pass.
    setup = {"step": "setup", "dataset": full, "store": store, "selector": sel, "router": rtr,
             "repeats": SETUP_REPEATS}
    train, evaluate = steps[2][1], steps[3][1]
    steps.insert(4, ("setup.1", setup))
    steps.insert(8, ("setup.2", setup))
    steps.append(("setup.3", setup))
    if not trace:
        steps[8:8] = [("train.2", train), ("eval.2", evaluate)]
        steps[-1:-1] = [("train.3", train), ("eval.3", evaluate)]
    return steps


def run_round(wl: Workload, world: Path, rd: Path, seed: int, trace: bool) -> dict:
    rd.mkdir(parents=True)
    out: dict = {}
    for index, (name, spec) in enumerate(round_steps(wl, world, rd, seed, trace)):
        try:
            result, stdout = run_step(name, {**spec, "trace": trace and spec["step"] == "cli"}, rd)
        except StepFailed as exc:
            exc.index = index
            raise
        result["stdout"] = stdout
        out[name] = result
        cpu, wall = result["cpu_s"], result["wall_s"]
        if isinstance(cpu, list):
            cpu, wall = statistics.median(cpu), statistics.median(wall)
        print(f"  {name}: cpu {cpu:.3f} s, wall {wall:.3f} s, {result['maxrss_kb'] / 1024:.0f} MiB",
              file=sys.stderr)
    out["store_bytes"] = (rd / "store.bin").stat().st_size
    out["cache_bytes"] = (rd / "cache.json").stat().st_size
    out["artifact_bytes"] = sum(p.stat().st_size for d in ("models", "eval", "exp") for p in (rd / d).iterdir())
    out["digests"] = artifact_digests(rd)
    return out


def artifact_digests(rd: Path) -> dict[str, str]:
    """sha256 of every artifact a round writes, keyed by relative path."""
    digests = {}
    for path in sorted(rd.rglob("*")):
        if path.is_file() and not path.name.endswith((".spec.json", ".result.json")):
            digests[str(path.relative_to(rd))] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def end_to_end(rounds: list[dict], n_queries: int) -> dict:
    def med(values):
        return statistics.median(values)

    def samples(step):  # CPU seconds of a step and of its repeats, in every round
        return [t for r in rounds for k, v in r.items() if k.split(".")[0] == step
                for t in (v["cpu_s"] if isinstance(v["cpu_s"], list) else [v["cpu_s"]])]

    exp_steps = [k for k in rounds[0] if k.startswith("exp_")]
    mb = 1e6
    metrics = {
        "setup_s": (med(samples("setup")), "s"),
        "embed_cold_s": (med(samples("embed_cold")), "s"),
        "embed_incr_s": (med(samples("embed_incr")), "s"),
        "train_s": (med(samples("train")), "s"),
        "eval_qps": (n_queries / med(samples("eval")), "queries/s"),
        "experiments_s": (med([sum(r[k]["cpu_s"] for k in exp_steps) for r in rounds]), "s"),
        "peak_rss_mb": (med([max(v["maxrss_kb"] for k, v in r.items() if k.split(".")[0] in ("train", "eval")
                                 or k in exp_steps) for r in rounds])
                        * 1024 / mb, "MB"),
        "embed_peak_rss_mb": (med([max(r["embed_cold"]["maxrss_kb"], r["embed_incr"]["maxrss_kb"])
                                   for r in rounds]) * 1024 / mb, "MB"),
        "store_mb": (med([r["store_bytes"] for r in rounds]) / mb, "MB"),
        "cache_mb": (med([r["cache_bytes"] for r in rounds]) / mb, "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def measure(wl: Workload, world: Path, run_dir: Path, args) -> tuple[list[dict], int, int]:
    """Whole rounds until ``args.seconds`` of rounds have passed; (rounds, attempted, failed)."""
    n_steps = len(round_steps(wl, world, run_dir, args.seed, bool(args.trace)))
    rounds: list[dict] = []
    attempted = failed = 0
    started = time.perf_counter()
    longest = 0.0
    while not rounds or time.perf_counter() - started + longest <= args.seconds:
        t0 = time.perf_counter()
        attempted += n_steps
        try:
            rounds.append(run_round(wl, world, run_dir / f"r{len(rounds)}", args.seed, bool(args.trace)))
        except StepFailed as exc:
            # The failed step and every later one, which needs its output.
            failed += n_steps - exc.index
            print(exc, file=sys.stderr)
            break
        longest = max(longest, time.perf_counter() - t0)
        if len(rounds) > 1:
            shutil.rmtree(run_dir / f"r{len(rounds) - 1}")
    return rounds, attempted, failed


def verify(wl: Workload, world: Path, run_dir: Path, rounds: list[dict]) -> None:
    """Check the first round against independent recomputations; later rounds must match it."""
    rd = run_dir / "r0"
    _, stdout = run_step("dry_run", {"step": "cli", "argv": [
        "embed", "--dataset", str(world / "full"), "--store", str(rd / "store.bin"), "--dry-run"]}, run_dir)
    check_round(World(world), rd, stdout, rounds[0]["embed_incr"]["provider"]["received"],
                wl.synthetic_calibration)
    for i, r in enumerate(rounds[1:], start=1):
        if r["digests"] != rounds[0]["digests"]:
            changed = sorted(k for k in r["digests"] if r["digests"][k] != rounds[0]["digests"].get(k))
            raise CheckFailed(f"round {i} artifacts differ from round 0: {changed[:5]}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "regime_router" / "cli.py").is_file():
        print(f"error: no regime_router source under {SRC}", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    world = materialize(wl.spec, args.seed, WORK / "worlds")
    run_dir = WORK / "runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        rounds, attempted, failed = measure(wl, world, run_dir, args)
        if not rounds:
            print("error: no round completed", file=sys.stderr)
            return 1
        correct = True
        t0 = time.perf_counter()
        try:
            verify(wl, world, run_dir, rounds)
            print(f"  checks passed in {time.perf_counter() - t0:.1f} s", file=sys.stderr)
        except (CheckFailed, StepFailed) as exc:
            print(f"check failed: {exc}", file=sys.stderr)
            correct = False
        if args.trace:
            metrics = layer_metrics(rounds, wl.spec.queries)
            (WORK / f"trace-{args.workload}.json").write_text(json.dumps(metrics, indent=1), encoding="utf-8")
            if abs(metrics["trace.self_share"]["value"] - 1.0) > 0.1:
                print("check failed: layer self times do not sum to the traced time", file=sys.stderr)
                correct = False
            del metrics["trace.self_share"]
        else:
            metrics = end_to_end(rounds, wl.spec.queries)
        print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
        return 0 if correct else 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

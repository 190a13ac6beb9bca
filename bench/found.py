"""Reproduce, on generated worlds, the faults listed as FOUND in CHANGES.md.

Usage (from the repository root):

    python3 bench/found.py mcnemar 2000 5000 10000
    python3 bench/found.py nonconvergence 500 881 1000 1500 2000 3000 4000 6000 8000 9000 10000

``mcnemar N...`` builds a many-queries world of N queries, embeds and
trains it, runs the knockout experiment under tracing and prints the
time spent in ``stats.mcnemar`` with the discordant counts it tested.

``nonconvergence N...`` builds one many-queries world with enough
queries for the largest N, embeds it once, then runs ``train`` on its
first N queries with N annotated bridges and prints each outcome.

Worlds are cached under .bench_work like the benchmark's; nothing here
is part of a benchmark run.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from dataclasses import replace
from pathlib import Path

from run import WORK, WORKLOADS, StepFailed, provider_flags, run_step
from checks import L2_PENALTY, ROUTING_FLAGS
from worlds import materialize

TAIL = 100


def _world(queries: int, seed: int) -> tuple[Path, int]:
    spec = replace(WORKLOADS["many-queries"].spec, queries=queries, tail=TAIL)
    return materialize(spec, seed, WORK / "worlds"), spec.dim


def _embed(world: Path, dim: int, rd: Path) -> Path:
    store = rd / "store.bin"
    run_step("embed", {"step": "cli", "standin": {"plan": str(world / "plan.json"), "dim": dim}, "argv": [
        "embed", "--dataset", str(world / "full"), "--store", str(store), *provider_flags()]}, rd)
    return store


def mcnemar(sizes: list[int], seed: int, rd: Path) -> None:
    for n in sizes:
        world, dim = _world(n, seed)
        store = _embed(world, dim, rd)
        models = rd / "models"
        run_step("train", {"step": "cli", "argv": [
            "train", "--dataset", str(world / "train"), "--store", str(store), "--annotations",
            str(world / "annotations.jsonl"), "--out-dir", str(models), "--l2-penalty", str(L2_PENALTY),
            *ROUTING_FLAGS]}, rd)
        result, _ = run_step("knockout", {"step": "cli", "trace": True, "argv": [
            "experiment", "knockout", "--dataset", str(world / "full"), "--store", str(store),
            "--selector-model", str(models / "selector.json"), "--out-dir", str(rd / "exp"),
            "--deterministic", *ROUTING_FLAGS]}, rd)
        report = json.loads(next((rd / "exp").glob("knockout_*.json")).read_text(encoding="utf-8"))
        calls, _, self_s = result["trace"]["spans"]["stats.mcnemar"]
        pairs = [(report[k]["wins"], report[k]["losses"]) for k in ("full_vs_minus", "full_vs_rel")]
        print(f"queries={n}: stats.mcnemar {calls} calls, {self_s:.2f} s; (wins, losses) {pairs}; "
              f"knockout {result['wall_s']:.2f} s")
        shutil.rmtree(rd / "exp")


def nonconvergence(sizes: list[int], seed: int, rd: Path) -> None:
    world, dim = _world(max(max(sizes), 881) + TAIL, seed)
    store = _embed(world, dim, rd)
    queries = (world / "full" / "queries.jsonl").read_text(encoding="utf-8").splitlines()
    truth = json.loads((world / "truth.json").read_text(encoding="utf-8"))
    for n in sizes:
        data = rd / f"train{n}"
        data.mkdir()
        (data / "queries.jsonl").write_text("\n".join(queries[:n]) + "\n", encoding="utf-8")
        shutil.copy(world / "full" / "passages.jsonl", data / "passages.jsonl")
        with open(rd / f"annotations{n}.jsonl", "w", encoding="utf-8") as fh:
            for line in queries[:n]:
                q = json.loads(line)
                fh.write(json.dumps({"bridge_id": q["bridge_id"], "question_id": q["id"],
                                     "gold_sentence_index": truth[q["id"]]["rel_index"]}) + "\n")
        try:
            run_step(f"train{n}", {"step": "cli", "argv": [
                "train", "--dataset", str(data), "--store", str(store), "--annotations",
                str(rd / f"annotations{n}.jsonl"), "--out-dir", str(rd / f"models{n}"),
                "--l2-penalty", str(L2_PENALTY), *ROUTING_FLAGS]}, rd)
            print(f"n={n}: trained")
        except StepFailed as exc:
            detail = [line for line in str(exc).splitlines() if line.startswith("error")]
            print(f"n={n}: {detail[-1] if detail else exc}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("fault", choices=("mcnemar", "nonconvergence"))
    ap.add_argument("sizes", type=int, nargs="+")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    rd = WORK / f"found-{args.fault}"
    shutil.rmtree(rd, ignore_errors=True)
    rd.mkdir(parents=True)
    try:
        (mcnemar if args.fault == "mcnemar" else nonconvergence)(args.sizes, args.seed, rd)
    finally:
        shutil.rmtree(rd, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

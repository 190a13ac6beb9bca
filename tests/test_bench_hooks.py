"""The benchmark's hooks into the program still hold: its trace hooks find
every method they wrap, and the CLI accepts every command it runs."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from regime_router.cli import DATASET_PROTOCOLS, EXPERIMENT_NAMES, build_parser, merge_config

ROOT = Path(__file__).resolve().parent.parent


def test_bench_tracer_installs():
    # ``Tracer.install`` wraps each method in ``bench/tracing.py``'s METHODS by
    # getattr, so deleting one of them breaks ``bench/run.py --trace 1``.
    code = "import sys; sys.path[:0] = sys.argv[1:]; import tracing; tracing.Tracer().install()"
    done = subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "bench"), str(ROOT / "src")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr


@pytest.fixture
def bench_run(monkeypatch):
    """``bench/run.py`` as a module; its path entries and the modules loaded from ``bench/`` are dropped afterwards.

    Other modules that it imports first (numpy submodules, say) stay
    loaded, since some of them cannot be loaded twice in one process.
    """
    monkeypatch.setattr(sys, "path", list(sys.path))
    before = set(sys.modules)
    spec = importlib.util.spec_from_file_location("bench_run", ROOT / "bench" / "run.py")
    module = sys.modules["bench_run"] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    yield module
    for name in set(sys.modules) - before:
        path = getattr(sys.modules[name], "__file__", None)
        if name == "bench_run" or (path and Path(path).resolve().parent == ROOT / "bench"):
            del sys.modules[name]


def test_bench_commands_parse(bench_run, tmp_path):
    # Deleting a flag or config value that a bench step passes fails here,
    # not only when the benchmark runs.
    argvs = [
        spec["argv"]
        for wl in bench_run.WORKLOADS.values()
        for _, spec in bench_run.round_steps(wl, tmp_path / "world", tmp_path / "round", 1, False)
        if spec["step"] == "cli"
    ]
    assert {argv[0] for argv in argvs} == {"embed", "train", "eval", "experiment"}
    # The benchmark runs every dataset protocol of the CLI's table, and no other.
    assert tuple(DATASET_PROTOCOLS) == bench_run.DATASET_EXPERIMENTS
    for argv in argvs:
        args = build_parser().parse_args(argv)
        merge_config(args)
        if args.command == "experiment":
            assert args.name in EXPERIMENT_NAMES


def test_bench_workloads_are_the_declared_ones(bench_run):
    # The benchmark runs exactly the workloads that BENCHMARK.json declares.
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]
    assert sorted(bench_run.WORKLOADS) == sorted(wl["name"] for wl in declared)

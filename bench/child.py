"""Run one measured step in a fresh process and write what it cost.

Usage: python3 child.py SPEC.json

The spec names the source tree, the step and the result file. A ``cli``
step calls ``regime_router.cli.main`` with the given argv; an ``embed``
step first makes the CLI build the real ``EmbeddingClient`` with the
stand-in as its transport. A ``setup`` step repeats the loads every
command pays before it works. The clocks start after the imports. Each
step reports its CPU time (user + system, all threads) and its wall
time; peak RSS is this process's own ``getrusage``.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

import numpy  # noqa: F401  (imported before the clock: a dependency, not the program)


def _clocks() -> tuple[float, float]:
    return time.process_time(), time.perf_counter()


def _run_setup(spec: dict) -> tuple[list[float], list[float]]:
    from regime_router.corpus import load_dataset
    from regime_router.embedding_store import load_vectors
    from regime_router.linear_model import load_model

    cpu, wall = [], []
    for _ in range(spec["repeats"]):
        c0, w0 = _clocks()
        load_dataset(spec["dataset"])
        load_vectors(spec["store"])
        load_model(spec["selector"])
        load_model(spec["router"])
        c1, w1 = _clocks()
        cpu.append(c1 - c0)
        wall.append(w1 - w0)
    return cpu, wall


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    sys.path.insert(0, spec["src"])
    import regime_router.cli as cli

    tracer = None
    if spec.get("trace"):
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    provider = None
    if spec.get("standin"):
        from regime_router.embedding_store import EmbeddingClient
        from standin import StandInProvider

        provider = StandInProvider(spec["standin"]["plan"], spec["standin"]["dim"])
        transport = provider if tracer is None else tracer.wrap("standin.call", provider)

        def client(cfg, cache_path=None):
            return EmbeddingClient(cfg, cache_path=cache_path, transport=transport)

        cli.EmbeddingClient = client

    result: dict = {}
    if spec["step"] == "setup":
        result["cpu_s"], result["wall_s"] = _run_setup(spec)
        rc = 0
    else:
        c0, w0 = _clocks()
        rc = cli.main(spec["argv"])
        c1, w1 = _clocks()
        result["cpu_s"], result["wall_s"] = c1 - c0, w1 - w0
    result["rc"] = rc
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if provider is not None:
        result["provider"] = {"calls": provider.calls, "texts": provider.texts}
        if spec["standin"].get("keep_received"):
            result["provider"]["received"] = provider.received
    if tracer is not None:
        result["trace"] = tracer.report()
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

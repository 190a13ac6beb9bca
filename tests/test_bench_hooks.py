"""The benchmark's trace hooks still find every method they wrap."""

import subprocess
import sys
from pathlib import Path

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

"""Embedding provider stand-in: no network, no sleeping.

It is the transport of the real ``EmbeddingClient``. Each vector is a
function of the sha256 of the exact string sent, prefix included: the
digest seeds unit noise on the axes past the three planted ones, and
the world's plan, keyed by the same digest, sets the planted axes.
Texts absent from the plan are pure noise.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

PLANTED_AXES = 3
NOISE = 0.1


def standin_vector(text: str, dim: int, plan: dict[str, list[float]]) -> np.ndarray:
    """The raw (unnormalized) vector the stand-in returns for ``text``."""
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    noise = np.random.default_rng(int(digest[:16], 16)).standard_normal(dim - PLANTED_AXES)
    vec = np.empty(dim)
    vec[:PLANTED_AXES] = plan.get(digest[:24], (0.0, 0.0, 0.0))
    vec[PLANTED_AXES:] = NOISE * noise / np.linalg.norm(noise)
    return vec


class StandInProvider:
    """Callable with the transport signature; counts calls and texts itself."""

    def __init__(self, plan_path: Path | str, dim: int) -> None:
        self.plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
        self.dim = dim
        self.calls = 0
        self.texts = 0
        self.received: list[str] = []

    def __call__(self, url: str, payload: dict, headers: dict, timeout: float) -> dict:
        inputs = payload["input"]
        self.calls += 1
        self.texts += len(inputs)
        self.received.extend(inputs)
        return {"vectors": [standin_vector(s, self.dim, self.plan).tolist() for s in inputs]}

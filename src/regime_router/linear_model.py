"""Binary logistic regression with deterministic full-batch training.

Newton iterations with step halving, falling back to a gradient step
whenever the Hessian solve is unreliable. No randomness anywhere: the
optimizer starts at zero and the data order is never shuffled, so
identical inputs produce bitwise-identical models.

Features are standardized internally; the transform is stored in the
model so artifacts are self-contained. Constant columns are flagged and
their weights forced to zero. ``predict_proba`` is the one scoring path:
it takes a matrix of rows and one dot product per row, so a row scores
the same alone or in any batch.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .atomic import atomic_write

ARTIFACT_VERSION = "lm-v1"


class SingleClassError(ValueError):
    """Training labels contain only one class."""


class NonConvergenceError(RuntimeError):
    def __init__(self, grad_norm: float, max_iter: int, stalled_at: int | None = None) -> None:
        self.grad_norm = grad_norm
        if stalled_at is None:
            msg = f"no convergence after {max_iter} iterations"
        else:
            msg = f"line search stalled at iteration {stalled_at}"
        super().__init__(f"{msg}; gradient norm {grad_norm:.3e}")


class FoldError(RuntimeError):
    """Training failed inside cross_fit; carries the fold index."""

    def __init__(self, fold_index: int, original: Exception) -> None:
        self.fold_index = fold_index
        self.original = original
        super().__init__(f"fold {fold_index}: {original}")


@dataclass(frozen=True)
class TrainConfig:
    l2_penalty: float = 1.0
    tol: float = 1e-8
    max_iter: int = 200


@dataclass(frozen=True)
class LinearModel:
    weights: tuple[float, ...]
    bias: float
    feature_names: tuple[str, ...]
    mean: tuple[float, ...]
    std: tuple[float, ...]
    constant: tuple[bool, ...]
    train_meta: dict = field(default_factory=dict, compare=False)

    def standardize(self, x: np.ndarray) -> np.ndarray:
        mu = np.asarray(self.mean)
        sd = np.where(np.asarray(self.constant), 1.0, np.asarray(self.std))
        return (x - mu) / sd


def _sigmoid(eta: np.ndarray) -> np.ndarray:
    out = np.empty_like(eta)
    pos = eta >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-eta[pos]))
    e = np.exp(eta[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def _penalized_nll(theta: np.ndarray, Z: np.ndarray, y: np.ndarray, l2: float) -> float:
    eta = Z @ theta[:-1] + theta[-1]
    nll = float(np.sum(np.logaddexp(0.0, eta) - y * eta))
    return nll + 0.5 * l2 * float(np.dot(theta[:-1], theta[:-1]))


def _gradient(theta: np.ndarray, Z: np.ndarray, y: np.ndarray, l2: float) -> np.ndarray:
    p = _sigmoid(Z @ theta[:-1] + theta[-1])
    r = p - y
    return np.concatenate([Z.T @ r + l2 * theta[:-1], [float(np.sum(r))]])


def _hessian(theta: np.ndarray, Z: np.ndarray, l2: float) -> np.ndarray:
    p = _sigmoid(Z @ theta[:-1] + theta[-1])
    w = p * (1.0 - p)
    d = Z.shape[1]
    H = np.empty((d + 1, d + 1))
    Zw = Z * w[:, None]
    H[:d, :d] = Z.T @ Zw + l2 * np.eye(d)
    H[:d, d] = Zw.sum(axis=0)
    H[d, :d] = H[:d, d]
    H[d, d] = float(np.sum(w))
    return H


def train(X, y, cfg: TrainConfig | None = None) -> LinearModel:
    """Minimize the L2-penalized negative log-likelihood to grad norm <= tol.

    When the line search can no longer lower the loss, the iterate is also
    accepted with a gradient norm up to sqrt(eps) * n, the float floor of
    a gradient summed over n rows; training stops at the first flat step
    that lands within that floor. Any other stop raises
    NonConvergenceError, naming a line-search stall or ``max_iter``.
    """
    cfg = cfg or TrainConfig()
    X = np.asarray(X, dtype=float)
    yv = np.asarray(y, dtype=float)
    if X.ndim != 2:
        raise ValueError("X must be a 2-D matrix")
    if not np.all(np.isfinite(X)):
        raise ValueError("X contains non-finite values")
    if not np.all((yv == 0.0) | (yv == 1.0)):
        raise ValueError("y must be binary 0/1")
    if yv.min() == yv.max():
        raise SingleClassError("labels contain a single class")
    if not (math.isfinite(cfg.l2_penalty) and cfg.l2_penalty >= 0.0):
        raise ValueError(f"l2_penalty must be finite and >= 0, got {cfg.l2_penalty}")

    mu = X.mean(axis=0)
    sd = X.std(axis=0)
    constant = sd == 0.0
    sd_safe = np.where(constant, 1.0, sd)
    Z_full = (X - mu) / sd_safe
    free = ~constant
    Z = Z_full[:, free]

    # Past the float floor the loss cannot resolve a better iterate. A
    # minimizer is then located to about sqrt(eps) relative accuracy, so
    # a gradient summed over n standardized rows stops near sqrt(eps) * n.
    floor_tol = math.sqrt(np.finfo(float).eps) * X.shape[0]
    l2 = cfg.l2_penalty
    theta = np.zeros(Z.shape[1] + 1)
    grad = _gradient(theta, Z, yv, l2)
    lowered = True  # did the last line search strictly lower the loss?
    stalled_at = None
    for it in range(cfg.max_iter):
        if float(np.linalg.norm(grad)) <= cfg.tol:
            break
        step = None
        H = _hessian(theta, Z, l2)
        try:
            cand = np.linalg.solve(H, -grad)
            if np.all(np.isfinite(cand)) and np.linalg.cond(H) < 1e12:
                step = cand
        except np.linalg.LinAlgError:
            step = None
        if step is None:
            step = -grad  # gradient-descent fallback
        loss = _penalized_nll(theta, Z, yv, l2)
        t = 1.0
        accepted = False
        for _ in range(60):
            trial = theta + t * step
            trial_loss = _penalized_nll(trial, Z, yv, l2)
            # Non-strict: near the optimum the loss is flat to float
            # precision while the Newton step still shrinks the gradient.
            if trial_loss <= loss:
                theta = trial
                accepted = True
                lowered = trial_loss < loss
                break
            t *= 0.5
        if not accepted:
            lowered = False
            stalled_at = it
            break
        grad = _gradient(theta, Z, yv, l2)
        if not lowered and float(np.linalg.norm(grad)) <= floor_tol:
            break  # a flat step within the floor: later steps cannot do better
    final_norm = float(np.linalg.norm(grad))
    if final_norm > cfg.tol and (lowered or final_norm > floor_tol):
        raise NonConvergenceError(final_norm, cfg.max_iter, stalled_at)

    weights = np.zeros(X.shape[1])
    weights[free] = theta[:-1]
    names = tuple(f"f{i}" for i in range(X.shape[1]))
    return LinearModel(
        weights=tuple(float(w) for w in weights),
        bias=float(theta[-1]),
        feature_names=names,
        mean=tuple(float(v) for v in mu),
        std=tuple(float(v) for v in sd),
        constant=tuple(bool(c) for c in constant),
        train_meta={
            "n": int(X.shape[0]),
            "l2_penalty": l2,
            "tol": cfg.tol,
            "max_iter": cfg.max_iter,
            "deterministic": True,
        },
    )


def with_feature_names(m: LinearModel, names) -> LinearModel:
    names = tuple(names)
    if len(names) != len(m.weights):
        raise ValueError("feature name count must match weight count")
    return replace(m, feature_names=names)


def predict_proba(m: LinearModel, X) -> np.ndarray:
    """P(y = 1) for every row of an n x d feature matrix.

    Each logit is one dot product of its standardized row with the weights,
    so a row's probability does not depend on the batch it is scored in.
    """
    Xv = np.asarray(X, dtype=float)
    if Xv.ndim != 2 or Xv.shape[1] != len(m.weights):
        raise ValueError(f"expected rows of {len(m.weights)} features, got shape {Xv.shape}")
    if not np.all(np.isfinite(Xv)):
        raise ValueError("feature matrix contains non-finite values")
    Z = m.standardize(Xv)
    w = np.asarray(m.weights)
    return _sigmoid(np.matmul(Z[:, None, :], w[:, None])[:, 0, 0] + m.bias)


def fold_bounds(n: int, k: int) -> list[tuple[int, int]]:
    """Contiguous folds in input order, sizes differing by at most one."""
    base, rem = divmod(n, k)
    bounds = []
    start = 0
    for i in range(k):
        size = base + (1 if i < rem else 0)
        bounds.append((start, start + size))
        start += size
    return bounds


@dataclass(frozen=True)
class CrossFitResult:
    out_of_fold_probs: tuple[float, ...]
    fold_models: tuple[LinearModel, ...]
    full_model: LinearModel
    fold_sizes: tuple[int, ...]


def cross_fit(X, y, k: int = 5, cfg: TrainConfig | None = None) -> CrossFitResult:
    """Contiguous shuffle-free k-fold cross-fitting.

    Each example's probability comes from the model trained without its
    fold; a full model over all rows is returned for transfer use.
    """
    X = np.asarray(X, dtype=float)
    yv = np.asarray(y, dtype=float)
    n = X.shape[0]
    if n < k:
        raise ValueError(f"need at least k={k} examples, got {n}")
    bounds = fold_bounds(n, k)
    oof = np.empty(n)
    fold_models: list[LinearModel] = []
    for fi, (lo, hi) in enumerate(bounds):
        mask = np.ones(n, dtype=bool)
        mask[lo:hi] = False
        try:
            fm = train(X[mask], yv[mask], cfg)
        except Exception as exc:
            raise FoldError(fi, exc) from exc
        fm = replace(fm, train_meta={**fm.train_meta, "fold": fi})
        fold_models.append(fm)
        oof[lo:hi] = predict_proba(fm, X[lo:hi])
    try:
        full = train(X, yv, cfg)
    except Exception as exc:
        raise FoldError(-1, exc) from exc
    full = replace(full, train_meta={**full.train_meta, "fold": -1})
    return CrossFitResult(
        out_of_fold_probs=tuple(float(p) for p in oof),
        fold_models=tuple(fold_models),
        full_model=full,
        fold_sizes=tuple(hi - lo for lo, hi in bounds),
    )


def save_model(m: LinearModel, path: Path | str) -> None:
    """Write the JSON artifact; a failure mid-write keeps any previous file."""
    payload = {
        "version": ARTIFACT_VERSION,
        "feature_names": list(m.feature_names),
        "weights": list(m.weights),
        "bias": m.bias,
        "standardization": {
            "mean": list(m.mean),
            "std": list(m.std),
            "constant": list(m.constant),
        },
        "train_meta": m.train_meta,
    }
    with atomic_write(path, encoding="utf-8") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n")


def _numbers(values, what: str, path) -> tuple[float, ...]:
    if not isinstance(values, list) or not all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in values
    ):
        raise ValueError(f"model file {path}: {what} must be a list of numbers")
    return tuple(float(v) for v in values)


def load_model(path: Path | str) -> LinearModel:
    """Read a JSON artifact; a file of another shape raises ``ValueError`` naming it."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValueError(f"model file {path}: {exc}") from None
    if not isinstance(payload, dict):
        raise ValueError(f"model file {path}: expected a JSON object")
    version = payload.get("version")
    if version != ARTIFACT_VERSION:
        raise ValueError(f"model file {path}: unsupported model artifact version {version!r}")
    std = payload.get("standardization")
    if not isinstance(std, dict):
        raise ValueError(f"model file {path}: standardization must be an object")
    names = payload.get("feature_names")
    if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
        raise ValueError(f"model file {path}: feature_names must be a list of strings")
    constant = std.get("constant")
    if not isinstance(constant, list) or not all(isinstance(c, bool) for c in constant):
        raise ValueError(f"model file {path}: standardization.constant must be a list of booleans")
    weights = _numbers(payload.get("weights"), "weights", path)
    mean = _numbers(std.get("mean"), "standardization.mean", path)
    sd = _numbers(std.get("std"), "standardization.std", path)
    (bias,) = _numbers([payload.get("bias")], "bias", path)
    lengths = {len(names), len(weights), len(mean), len(sd), len(constant)}
    if len(lengths) != 1:
        raise ValueError(
            f"model file {path}: feature_names, weights, mean, std and constant differ in length"
        )
    meta = payload.get("train_meta", {})
    if not isinstance(meta, dict):
        raise ValueError(f"model file {path}: train_meta must be an object")
    return LinearModel(
        weights=weights,
        bias=bias,
        feature_names=tuple(names),
        mean=mean,
        std=sd,
        constant=tuple(constant),
        train_meta=dict(meta),
    )

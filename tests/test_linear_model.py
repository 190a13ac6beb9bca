import dataclasses
import itertools
import json
import math

import numpy as np
import pytest
from conftest import build_routing_world

from regime_router import linear_model
from regime_router.linear_model import (
    FoldError,
    NonConvergenceError,
    SingleClassError,
    TrainConfig,
    cross_fit,
    fold_bounds,
    load_model,
    _sigmoid,
    predict_proba,
    save_model,
    train,
    with_feature_names,
)
from regime_router.router_retrieval import build_router_training
from regime_router.selector import train_selector


def separable(n=80, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(0, 1, size=(n, 3))
    y = (X[:, 0] + 0.5 * X[:, 1] > 0).astype(float)
    return X, y


def test_train_fits_separable_data():
    X, y = separable()
    m = train(X, y)
    preds = predict_proba(m, X) > 0.5
    assert np.mean(preds == y.astype(bool)) > 0.95
    assert m.train_meta["deterministic"] is True


def test_training_is_deterministic():
    X, y = separable(seed=3)
    m1 = train(X, y)
    m2 = train(X, y)
    assert m1.weights == m2.weights
    assert m1.bias == m2.bias


def test_standardization_stored_in_model():
    X, y = separable(seed=1)
    m = train(X, y)
    assert np.allclose(m.mean, X.mean(axis=0))
    assert np.allclose(m.std, X.std(axis=0))
    assert m.constant == (False, False, False)


def test_constant_column_gets_zero_weight():
    X, y = separable(seed=2)
    X = np.hstack([X, np.full((X.shape[0], 1), 7.0)])
    m = train(X, y)
    assert m.constant == (False, False, False, True)
    assert m.weights[3] == 0.0
    # A shifted constant must not move predictions.
    x = np.array([0.2, -0.1, 0.5, 7.0])
    x_shift = np.array([0.2, -0.1, 0.5, 99.0])
    p, p_shift = predict_proba(m, [x, x_shift])
    assert p == p_shift


def test_single_class_rejected():
    X, _ = separable()
    with pytest.raises(SingleClassError):
        train(X, np.zeros(X.shape[0]))


def test_label_validation():
    X, _ = separable()
    with pytest.raises(ValueError, match="binary"):
        train(X, np.full(X.shape[0], 0.5))
    with pytest.raises(ValueError, match="2-D"):
        train(X[:, 0], np.zeros(X.shape[0]))
    bad = X.copy()
    bad[0, 0] = np.inf
    with pytest.raises(ValueError, match="finite"):
        train(bad, (X[:, 0] > 0).astype(float))


@pytest.mark.parametrize("l2", [float("nan"), float("inf"), -1.0])
def test_bad_l2_penalty_rejected(l2):
    X, y = separable()
    with pytest.raises(ValueError, match="l2_penalty"):
        train(X, y, TrainConfig(l2_penalty=l2))


def test_nonconvergence_raises_with_grad_norm():
    X, y = separable()
    with pytest.raises(NonConvergenceError, match="no convergence after 1 iterations") as err:
        train(X, y, TrainConfig(max_iter=1, tol=1e-14, l2_penalty=0.0))
    assert err.value.grad_norm > 0


def test_line_search_stall_far_from_the_optimum_raises(monkeypatch):
    X, y = separable()
    losses = itertools.count()  # every trial looks worse than the iterate
    monkeypatch.setattr(linear_model, "_penalized_nll", lambda *args: float(next(losses)))
    with pytest.raises(NonConvergenceError, match="line search stalled at iteration 0") as err:
        train(X, y)
    assert err.value.grad_norm > 1.0


def test_router_converges_at_the_float_floor():
    # At n=1600 the loss stops resolving progress at a gradient norm near
    # 2e-6: above the absolute tol of 1e-8, within the float floor.
    ds, store, annotations = build_routing_world(1600)
    X, y = build_router_training(ds, store, train_selector(annotations))
    m = train(X, y)
    assert m.train_meta == {"n": 1600, "l2_penalty": 1.0, "tol": 1e-8, "max_iter": 200, "deterministic": True}
    assert np.all((predict_proba(m, X) >= 0.5) == (y == 1.0))
    eta = m.standardize(X) @ np.asarray(m.weights) + m.bias
    r = 1.0 / (1.0 + np.exp(-eta)) - y
    grad = np.concatenate([m.standardize(X).T @ r + np.asarray(m.weights), [r.sum()]])
    assert 1e-8 < np.linalg.norm(grad) <= math.sqrt(np.finfo(float).eps) * 1600


def test_l2_shrinks_weights():
    X, y = separable(seed=4)
    loose = train(X, y, TrainConfig(l2_penalty=0.01))
    tight = train(X, y, TrainConfig(l2_penalty=100.0))
    assert np.linalg.norm(tight.weights) < np.linalg.norm(loose.weights)


def test_predict_proba_validation():
    X, y = separable()
    m = train(X, y)
    with pytest.raises(ValueError, match="features"):
        predict_proba(m, [[0.1, 0.2]])
    with pytest.raises(ValueError, match="features"):
        predict_proba(m, X[0])  # a bare vector is not a matrix of rows
    with pytest.raises(ValueError, match="finite"):
        predict_proba(m, [[0.1, np.nan, 0.2]])
    (p,) = predict_proba(m, X[:1])
    assert 0.0 < p < 1.0
    assert predict_proba(m, np.empty((0, 3))).shape == (0,)


@pytest.mark.parametrize("n", [1, 2, 80])
def test_predict_proba_is_one_dot_per_row(n):
    X, y = separable(seed=6)
    m = train(X, y)
    X = X[:n]
    probs = predict_proba(m, X)
    w = np.asarray(m.weights)
    for i, z in enumerate(m.standardize(X)):
        assert probs[i] == _sigmoid(np.array([np.dot(z, w) + m.bias]))[0]
        assert probs[i] == predict_proba(m, X[i : i + 1])[0]


def test_solver_stops_at_the_first_flat_step_within_the_floor(monkeypatch):
    ds, store, annotations = build_routing_world(1600)
    X, y = build_router_training(ds, store, train_selector(annotations))
    calls = []
    hessian = linear_model._hessian
    monkeypatch.setattr(linear_model, "_hessian", lambda *args: calls.append(1) or hessian(*args))
    train(X, y)
    assert 1 <= len(calls) <= 20


def test_with_feature_names():
    X, y = separable()
    m = with_feature_names(train(X, y), ("a", "b", "c"))
    assert m.feature_names == ("a", "b", "c")
    with pytest.raises(ValueError):
        with_feature_names(m, ("a",))


def test_artifact_round_trip_bitwise(tmp_path):
    X, y = separable(seed=5)
    m = train(X, y)
    path = tmp_path / "model.json"
    save_model(m, path)
    again = load_model(path)
    assert again.weights == m.weights
    assert again.bias == m.bias
    assert again.mean == m.mean
    assert again.std == m.std
    assert again.constant == m.constant
    probe = np.array([0.3, -1.2, 0.8])
    assert predict_proba(again, [probe])[0] == predict_proba(m, [probe])[0]


def test_artifact_version_gate(tmp_path):
    X, y = separable()
    path = tmp_path / "model.json"
    save_model(train(X, y), path)
    blob = json.loads(path.read_text())
    blob["version"] = "lm-v999"
    path.write_text(json.dumps(blob))
    with pytest.raises(ValueError, match="version"):
        load_model(path)


def test_failed_save_keeps_the_old_model(tmp_path, monkeypatch):
    X, y = separable()
    path = tmp_path / "model.json"
    save_model(train(X, y), path)
    before = path.read_bytes()

    def refuse(src, dst):
        raise OSError("disk full")

    # The new bytes are written in full, then the rename fails.
    monkeypatch.setattr("regime_router.atomic.os.replace", refuse)
    with pytest.raises(OSError, match="disk full"):
        save_model(train(X, 1.0 - y), path)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.json"]


def test_save_rejects_nan_and_keeps_the_old_model(tmp_path):
    X, y = separable()
    m = train(X, y)
    path = tmp_path / "model.json"
    save_model(m, path)
    before = path.read_bytes()
    with pytest.raises(ValueError, match="JSON compliant"):
        save_model(dataclasses.replace(m, bias=math.nan), path)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.json"]


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda blob: [blob], "JSON object"),
        (lambda blob: {k: v for k, v in blob.items() if k != "standardization"}, "standardization"),
        (lambda blob: {**blob, "weights": blob["weights"][:-1]}, "differ in length"),
        (lambda blob: {**blob, "weights": [None] * len(blob["weights"])}, "weights"),
        (lambda blob: {**blob, "bias": "high"}, "bias"),
        (lambda blob: {**blob, "feature_names": "abc"}, "feature_names"),
    ],
)
def test_load_rejects_malformed_artifacts(tmp_path, edit, message):
    X, y = separable()
    path = tmp_path / "model.json"
    save_model(train(X, y), path)
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    with pytest.raises(ValueError, match=message) as err:
        load_model(path)
    assert str(path) in str(err.value)


def test_load_rejects_invalid_json(tmp_path):
    path = tmp_path / "model.json"
    path.write_text("{not json")
    with pytest.raises(ValueError, match="model.json"):
        load_model(path)


# ---------------------------------------------------------------------------
# Fold partitioning and cross-fitting


def test_fold_bounds_881_by_5():
    bounds = fold_bounds(881, 5)
    sizes = [hi - lo for lo, hi in bounds]
    assert sizes == [177, 176, 176, 176, 176]
    assert bounds[0] == (0, 177)
    assert bounds[-1] == (705, 881)


def test_fold_bounds_cover_contiguously():
    for n, k in [(10, 3), (7, 7), (23, 4), (881, 5)]:
        bounds = fold_bounds(n, k)
        assert bounds[0][0] == 0 and bounds[-1][1] == n
        for (a, b), (c, d) in zip(bounds, bounds[1:]):
            assert b == c and a < b
        sizes = [hi - lo for lo, hi in bounds]
        assert max(sizes) - min(sizes) <= 1
        assert sorted(sizes, reverse=True) == sizes


def cross_fit_data(n=60, seed=8):
    rng = np.random.default_rng(seed)
    X = rng.normal(0, 1, size=(n, 2))
    y = (X[:, 0] - 0.3 * X[:, 1] > 0).astype(float)
    # Guarantee both classes in every contiguous fifth.
    for lo, hi in fold_bounds(n, 5):
        y[lo] = 0.0
        y[lo + 1] = 1.0
    return X, y


def test_cross_fit_shapes_and_meta():
    X, y = cross_fit_data()
    res = cross_fit(X, y, k=5)
    probs = np.asarray(res.out_of_fold_probs)
    assert probs.shape == (60,)
    assert np.all((probs > 0) & (probs < 1))
    assert len(res.fold_models) == 5
    assert res.fold_sizes == (12, 12, 12, 12, 12)
    assert res.full_model.train_meta["fold"] == -1
    assert [m.train_meta["fold"] for m in res.fold_models] == [0, 1, 2, 3, 4]


def test_cross_fit_out_of_fold_exclusion_by_poisoning():
    X, y = cross_fit_data()
    base = np.asarray(cross_fit(X, y, k=5).out_of_fold_probs)
    lo, hi = fold_bounds(60, 5)[2]
    poisoned = y.copy()
    poisoned[lo:hi] = 1.0 - poisoned[lo:hi]
    alt = np.asarray(cross_fit(X, poisoned, k=5).out_of_fold_probs)
    # Fold 2's own out-of-fold predictions come from a model that never
    # saw fold 2, so flipping fold 2's labels cannot move them.
    assert np.array_equal(base[lo:hi], alt[lo:hi])
    outside = np.concatenate([base[:lo], base[hi:]])
    outside_alt = np.concatenate([alt[:lo], alt[hi:]])
    assert not np.array_equal(outside, outside_alt)


def test_cross_fit_wraps_fold_failures():
    X, y = cross_fit_data()
    y[:12] = 0.0
    y[12:24] = 1.0  # fold 0 single-class once excluded? no: fold 1 training set still mixed
    y_bad = np.concatenate([np.zeros(12), np.ones(48)])
    # Excluding fold 0 leaves only positives for its model.
    with pytest.raises(FoldError) as err:
        cross_fit(X, y_bad, k=5)
    assert err.value.fold_index == 0
    assert isinstance(err.value.original, SingleClassError)


def test_cross_fit_needs_enough_rows():
    X, y = cross_fit_data()
    with pytest.raises(ValueError, match="at least"):
        cross_fit(X[:3], y[:3], k=5)

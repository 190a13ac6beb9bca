import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regime_router.stats import (
    _concordance,
    _pairwise_sign_agreement,
    calibration_fit,
    cohen_kappa,
    kendall_tau,
    mcnemar,
    per_query_auc,
    phi,
    separation_margin,
)

# Frozen oracle values, derived from exhaustive binomial sums and an
# independent CDF implementation before this module was written.
MCNEMAR_54_5_EXACT = 1.9067358802971057e-11
MCNEMAR_22_6_EXACT = 0.0037191659212112427  # = 249589 / 67108864
MCNEMAR_14_8_EXACT = 0.28627872467041016
MCNEMAR_22_6_ONE_SIDED = 0.0018595829606056213
MCNEMAR_14_8_ONE_SIDED = 0.14313936233520508
CHI2_22_6_STAT = 9.142857142857142
CHI2_22_6_SURVIVAL = 0.002496908915141551
CHI2_54_5_SURVIVAL = 1.7794961701526083e-10
PHI_1_959964 = 0.9750000009035577


# ---------------------------------------------------------------------------
# Margins and AUC


def test_separation_margin_hand_values():
    s, sigma = separation_margin(1.0, [0.0, 0.5, 1.0])
    assert s == pytest.approx(0.5)
    assert sigma == pytest.approx(math.sqrt(1.0 / 6.0))


def test_separation_margin_rejects_bad_input():
    with pytest.raises(ValueError):
        separation_margin(1.0, [])
    with pytest.raises(ValueError):
        separation_margin(float("nan"), [0.1])
    with pytest.raises(ValueError):
        separation_margin(0.1, [float("inf")])


def test_per_query_auc_extremes_and_ties():
    assert per_query_auc(1.0, [0.1, 0.2]) == 1.0
    assert per_query_auc(0.0, [0.1, 0.2]) == 0.0
    assert per_query_auc(0.5, [0.5, 0.5, 0.5, 0.5]) == 0.5
    assert per_query_auc(0.5, [0.4, 0.5, 0.6, 0.7]) == pytest.approx(0.375)


def brute_auc(gold, pool):
    score = 0.0
    for p in pool:
        if p < gold:
            score += 1.0
        elif p == gold:
            score += 0.5
    return score / len(pool)


@settings(max_examples=200, deadline=None)
@given(
    st.floats(-5, 5),
    st.lists(st.floats(-5, 5), min_size=1, max_size=40),
)
def test_per_query_auc_matches_brute_force(gold, pool):
    assert per_query_auc(gold, pool) == brute_auc(gold, pool)
    assert 0.0 <= per_query_auc(gold, pool) <= 1.0


def test_auc_with_integer_tie_grid():
    rng = np.random.default_rng(3)
    for _ in range(200):
        pool = rng.integers(0, 4, size=12).astype(float)
        gold = float(rng.integers(0, 4))
        assert per_query_auc(gold, pool) == brute_auc(gold, pool)


def test_phi_reference_points():
    assert phi(0.0) == 0.5
    assert abs(phi(1.959964) - PHI_1_959964) < 1e-12
    assert phi(-2.0) == pytest.approx(1.0 - phi(2.0))


# ---------------------------------------------------------------------------
# Calibration fit


def test_calibration_perfect_fit():
    rng = np.random.default_rng(0)
    margins = [(float(s), 0.2) for s in rng.normal(0, 0.5, size=50)]
    aucs = [phi(s / sig) for s, sig in margins]
    fit = calibration_fit(margins, aucs)
    assert fit.r_squared == pytest.approx(1.0)
    assert fit.inversion_accuracy == 1.0
    assert fit.n == 50
    assert not fit.degenerate


def test_calibration_destroyed_by_shuffling():
    rng = np.random.default_rng(1)
    margins = [(float(s), 0.2) for s in rng.normal(0, 0.5, size=400)]
    aucs = np.array([phi(s / sig) for s, sig in margins])
    shuffled = aucs.copy()
    rng.shuffle(shuffled)
    fit = calibration_fit(margins, shuffled)
    assert fit.r_squared < 0.2
    assert abs(fit.inversion_accuracy - 0.5) < 0.1


def test_calibration_degenerate_observations():
    fit = calibration_fit([(0.1, 0.2), (0.2, 0.2), (0.3, 0.2)], [0.7, 0.7, 0.7])
    assert fit.degenerate
    assert fit.r_squared == 0.0


def test_calibration_zero_sigma_rows_predict_half():
    fit = calibration_fit([(0.5, 0.0), (0.2, 0.0), (-0.1, 0.0)], [0.5, 0.5, 0.5])
    assert fit.degenerate


def test_calibration_needs_three_points():
    with pytest.raises(ValueError):
        calibration_fit([(0.1, 0.2), (0.2, 0.2)], [0.6, 0.7])
    with pytest.raises(ValueError):
        calibration_fit([(0.1, 0.2)], [0.6, 0.7])


# ---------------------------------------------------------------------------
# Concordance counts against the O(n^2) pairwise code they replaced


def reference_pairwise_sign_agreement(pred: np.ndarray, obs: np.ndarray, block: int = 512) -> float:
    n = pred.size
    agree = 0
    counted = 0
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        dp = np.sign(pred[lo:hi, None] - pred[None, :])
        do = np.sign(obs[lo:hi, None] - obs[None, :])
        mask = (dp != 0) & (do != 0)
        # Keep only pairs (i, j) with i < j globally.
        cols = np.arange(n)[None, :]
        rows = np.arange(lo, hi)[:, None]
        mask &= rows < cols
        agree += int(np.sum((dp == do) & mask))
        counted += int(np.sum(mask))
    return agree / counted if counted else 0.0


def reference_concordance(x: np.ndarray, y: np.ndarray) -> tuple[int, int]:
    dx = np.sign(x[:, None] - x[None, :])
    dy = np.sign(y[:, None] - y[None, :])
    iu = np.triu_indices(x.size, k=1)
    prod = dx[iu] * dy[iu]
    return int(np.sum(prod > 0)), int(np.sum(prod < 0))


# Few distinct values, so most pairs tie in x, in y or in both; signed
# zeros tie with each other.
_tied_values = st.sampled_from((0.0, -0.0, 1.0, 2.0, 2.5, -3.0))
_value_pairs = st.lists(st.tuples(_tied_values, st.one_of(_tied_values, st.floats(-2, 2))), max_size=300)


@settings(max_examples=300, deadline=None)
@given(_value_pairs)
def test_concordance_matches_pairwise_reference_with_heavy_ties(pairs):
    x = np.array([a for a, _ in pairs], dtype=float)
    y = np.array([b for _, b in pairs], dtype=float)
    assert _concordance(x, y) == reference_concordance(x, y)
    assert _pairwise_sign_agreement(x, y) == reference_pairwise_sign_agreement(x, y)


def test_sign_agreement_matches_reference_across_blocks():
    rng = np.random.default_rng(11)
    for n, levels in ((1537, 7), (2048, 3), (700, 700)):
        pred = rng.integers(0, levels, size=n) / levels
        obs = np.round(pred + rng.normal(0, 0.2, size=n), 1)
        assert _pairwise_sign_agreement(pred, obs) == reference_pairwise_sign_agreement(pred, obs)


def test_concordance_rejects_non_finite():
    with pytest.raises(ValueError, match="finite"):
        kendall_tau([1.0, math.nan, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="finite"):
        _pairwise_sign_agreement(np.array([0.6, 0.7, 0.8]), np.array([0.6, math.inf, 0.7]))


# ---------------------------------------------------------------------------
# Kendall tau-b


def brute_kendall(a, b):
    x = [float(v) for v in a]
    y = [float(v) for v in b]
    n = len(x)
    c = d = 0
    for i in range(n):
        for j in range(i + 1, n):
            sx = (x[i] > x[j]) - (x[i] < x[j])
            sy = (y[i] > y[j]) - (y[i] < y[j])
            if sx * sy > 0:
                c += 1
            elif sx * sy < 0:
                d += 1
    n0 = n * (n - 1) // 2

    def tie_sums(vals):
        counts = Counter(vals).values()
        pairs = sum(t * (t - 1) for t in counts) // 2
        triples = sum(t * (t - 1) * (t - 2) for t in counts)
        v = sum(t * (t - 1) * (2 * t + 5) for t in counts)
        return pairs, triples, v

    n1, tx, vx = tie_sums(x)
    n2, ty, vy = tie_sums(y)
    if n1 == n0 or n2 == n0:
        return (math.nan, math.nan)
    tau = (c - d) / math.sqrt((n0 - n1) * (n0 - n2))
    v0 = n * (n - 1) * (2 * n + 5)
    var = (v0 - vx - vy) / 18.0
    if n > 2:
        var += tx * ty / (9.0 * n * (n - 1) * (n - 2))
    var += (2.0 * n1) * (2.0 * n2) / (2.0 * n * (n - 1))
    if var <= 0:
        return (tau, 1.0)
    z = (c - d) / math.sqrt(var)
    return (tau, min(1.0, 2.0 * (1.0 - phi(abs(z)))))


def test_kendall_perfect_orders():
    tau, p = kendall_tau([1, 2, 3, 4], [10, 20, 30, 40])
    assert tau == 1.0
    tau2, _ = kendall_tau([1, 2, 3, 4], [4, 3, 2, 1])
    assert tau2 == -1.0
    assert p < 0.2


def test_kendall_all_tied_is_nan():
    tau, p = kendall_tau([1, 1, 1], [1, 2, 3])
    assert math.isnan(tau) and math.isnan(p)


def test_kendall_matches_brute_force_with_ties():
    rng = np.random.default_rng(5)
    for _ in range(120):
        n = int(rng.integers(2, 25))
        a = rng.integers(0, 5, size=n).astype(float)
        b = rng.integers(0, 5, size=n).astype(float)
        got = kendall_tau(a, b)
        want = brute_kendall(a, b)
        if math.isnan(want[0]):
            assert math.isnan(got[0]) and math.isnan(got[1])
        else:
            assert got == want


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 6), min_size=2, max_size=20))
def test_kendall_self_correlation(values):
    tau, _ = kendall_tau(values, values)
    if len(set(values)) > 1:
        assert tau == 1.0
    else:
        assert math.isnan(tau)


def test_kendall_length_validation():
    with pytest.raises(ValueError):
        kendall_tau([1, 2], [1, 2, 3])
    with pytest.raises(ValueError):
        kendall_tau([1], [1])


# ---------------------------------------------------------------------------
# McNemar


def test_mcnemar_frozen_values():
    res = mcnemar(54, 5)
    assert res["p_exact"] == MCNEMAR_54_5_EXACT
    assert abs(res["p_chi2"] - CHI2_54_5_SURVIVAL) < 1e-3

    res = mcnemar(22, 6)
    assert res["p_exact"] == MCNEMAR_22_6_EXACT
    assert res["p_exact_one_sided"] == MCNEMAR_22_6_ONE_SIDED
    assert abs(res["p_chi2"] - CHI2_22_6_SURVIVAL) < 1e-3

    res = mcnemar(14, 8)
    assert res["p_exact"] == MCNEMAR_14_8_EXACT
    assert res["p_exact_one_sided"] == MCNEMAR_14_8_ONE_SIDED


def test_mcnemar_symmetry_and_cap():
    assert mcnemar(6, 22) == mcnemar(22, 6)
    assert mcnemar(3, 3)["p_exact"] == 1.0
    assert mcnemar(0, 0) == {"p_exact": 1.0, "p_chi2": 1.0, "p_exact_one_sided": 1.0}


def test_mcnemar_small_hand_case():
    res = mcnemar(5, 0)
    assert res["p_exact"] == pytest.approx(2.0 / 32.0)
    assert res["p_exact_one_sided"] == pytest.approx(1.0 / 32.0)


@pytest.mark.parametrize("wins,losses", [(54, 5), (22, 6), (3, 3), (0, 7), (1802, 0), (400, 380)])
def test_mcnemar_matches_summed_tails(wins, losses):
    # The upper tail is taken in closed form; it must equal the summed one.
    n, m = wins + losses, min(wins, losses)
    below = sum(math.comb(n, i) for i in range(0, m + 1))
    above = sum(math.comb(n, i) for i in range(m, n + 1))
    one_sided = Fraction(below, 1 << n)
    p_exact = min(2 * min(one_sided, Fraction(above, 1 << n)), Fraction(1))
    res = mcnemar(wins, losses)
    assert res["p_exact"] == float(p_exact)
    assert res["p_exact_one_sided"] == float(one_sided)


def test_mcnemar_rejects_negative():
    with pytest.raises(ValueError):
        mcnemar(-1, 2)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 40), st.integers(0, 40))
def test_mcnemar_outputs_are_probabilities(w, l):
    res = mcnemar(w, l)
    for key in ("p_exact", "p_chi2", "p_exact_one_sided"):
        assert 0.0 <= res[key] <= 1.0
    assert res["p_exact_one_sided"] <= res["p_exact"]


# ---------------------------------------------------------------------------
# Cohen's kappa


def test_kappa_perfect_and_hand_value():
    assert cohen_kappa(["Q", "B", "Q"], ["Q", "B", "Q"]) == 1.0
    assert cohen_kappa(["Q", "Q", "B", "B"], ["Q", "B", "B", "B"]) == pytest.approx(0.5)


def test_kappa_no_agreement_beyond_chance():
    assert cohen_kappa(["Q", "B"], ["B", "Q"]) == pytest.approx(-1.0)


def test_kappa_alignment_check():
    with pytest.raises(ValueError):
        cohen_kappa(["Q"], ["Q", "B"])

"""Statistical kernel: margins, per-query AUC, normal-CDF calibration,
Kendall tau-b, McNemar, and Cohen's kappa.

All functions are pure. Score pools arrive as sequences of floats; the
gold passage score is kept separate from the pool throughout, so AUC and
margin read as "gold versus distractors".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np


@dataclass(frozen=True)
class MarginRecord:
    """Per-query separation margins and AUC under both query embeddings.

    sigma_q / sigma_b are the population standard deviations of the pool
    scores under the question embedding and the relation-sentence
    embedding respectively. ``degenerate`` is set when either pool has
    zero spread.
    """

    query_id: str
    s_q: float
    s_b: float
    sigma_q: float
    sigma_b: float
    auc_q: float
    auc_b: float
    degenerate: bool = False


@dataclass(frozen=True)
class CalibrationFit:
    r_squared: float
    inversion_accuracy: float
    n: int
    degenerate: bool = False


def separation_margin(gold_score: float, pool_scores) -> tuple[float, float]:
    """Gold score minus pool mean, and the pool's population stddev.

    sigma == 0.0 signals a degenerate (constant) pool; callers flag it.
    """
    pool = np.asarray(pool_scores, dtype=float)
    if pool.size == 0:
        raise ValueError("pool_scores must be non-empty")
    if not np.all(np.isfinite(pool)) or not math.isfinite(gold_score):
        raise ValueError("scores must be finite")
    return float(gold_score - pool.mean()), float(pool.std())


def per_query_auc(gold_score: float, pool_scores) -> float:
    """Fraction of the pool strictly below gold, plus half the ties.

    >>> per_query_auc(0.9, [0.1, 0.2, 0.3])
    1.0
    >>> per_query_auc(0.5, [0.5, 0.5])
    0.5
    """
    pool = np.asarray(pool_scores, dtype=float)
    if pool.size == 0:
        raise ValueError("pool_scores must be non-empty")
    below = int(np.sum(pool < gold_score))
    tied = int(np.sum(pool == gold_score))
    return (below + 0.5 * tied) / pool.size


def pool_margins(gold_scores, pools) -> np.ndarray:
    """``separation_margin`` and ``per_query_auc`` of many queries at once.

    Row i of ``pools`` holds query i's distractor scores and ``gold_scores[i]``
    its gold score. Returns a 3 x n array: margins, population stddevs and
    AUCs. The row reductions sum each row in the order the one-query
    functions do, so every value is bit-identical to theirs.
    """
    gold = np.asarray(gold_scores, dtype=float)
    pool = np.asarray(pools, dtype=float)
    if pool.ndim != 2 or pool.shape[0] != gold.size or pool.shape[1] == 0:
        raise ValueError("pools must be an n x m matrix, m >= 1, with one gold score per row")
    if not (np.all(np.isfinite(pool)) and np.all(np.isfinite(gold))):
        raise ValueError("scores must be finite")
    below = np.count_nonzero(pool < gold[:, None], axis=1)
    tied = np.count_nonzero(pool == gold[:, None], axis=1)
    return np.stack([gold - pool.mean(axis=1), pool.std(axis=1), (below + 0.5 * tied) / pool.shape[1]])


def phi(z: float) -> float:
    """Standard normal CDF via erf."""
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def _tied_pairs(counts: np.ndarray) -> int:
    t = counts.astype(np.int64)
    return int(np.sum(t * (t - 1)) // 2)


def _strict_inversions(seq: np.ndarray) -> int:
    """Pairs i < j with seq[i] > seq[j], for non-negative integer ranks.

    Bottom-up merge sort: at width w, each right run counts the elements
    of its left run above each of its own, by one searchsorted over all
    left runs (offset by block so that they form one sorted array), and
    each block is then merged by one sort of the offset keys.
    """
    n = seq.size
    if n < 2:
        return 0
    span = int(seq.max()) + 1
    idx = np.arange(n)
    vals = seq.astype(np.int64)
    inversions = 0
    w = 1
    while w < n:
        block = idx // (2 * w)
        keys = vals + block * span
        right = (idx // w) % 2 == 1
        # Every block with a right run has full left runs before it and its own.
        below = np.searchsorted(keys[~right], keys[right], side="right") - block[right] * w
        inversions += int(np.sum(w - below))
        vals = np.sort(keys) - block * span
        w *= 2
    return inversions


def _concordance(x: np.ndarray, y: np.ndarray) -> tuple[int, int]:
    """(concordant, discordant) pair counts; a pair tied in x or y is neither.

    Sorted by (x, y), every strict inversion of y is a discordant pair;
    the pairs tied in neither are all pairs less the x ties and the y
    ties plus the joint ties. Inputs must be finite: a NaN has no order.
    """
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("values must be finite")
    n = x.size
    order = np.lexsort((y, x))
    xs, ys = x[order], y[order]
    _, y_ranks = np.unique(ys, return_inverse=True)
    discordant = _strict_inversions(y_ranks.reshape(-1))
    run_starts = np.flatnonzero(np.r_[True, (xs[1:] != xs[:-1]) | (ys[1:] != ys[:-1]), True])
    joint = _tied_pairs(np.diff(run_starts))
    untied = n * (n - 1) // 2 - _tie_sums(x)[0] - _tie_sums(y)[0] + joint
    return untied - discordant, discordant


def _pairwise_sign_agreement(pred: np.ndarray, obs: np.ndarray) -> float:
    """Fraction of pairs where sign(pred_i - pred_j) == sign(obs_i - obs_j).

    Pairs where either difference is exactly zero are excluded.
    """
    concordant, discordant = _concordance(pred, obs)
    counted = concordant + discordant
    return concordant / counted if counted else 0.0


def calibration_fit(margins, aucs) -> CalibrationFit:
    """Fit quality of predicted = phi(S_i / sigma_i) against empirical AUC.

    margins: sequence of (S, sigma) pairs. r_squared is 1 - SS_res/SS_tot;
    inversion_accuracy is pairwise sign agreement between predicted and
    observed AUC differences, zero-sign pairs excluded.
    """
    pairs = [(float(s), float(sig)) for s, sig in margins]
    obs = np.asarray(aucs, dtype=float)
    if len(pairs) != obs.size:
        raise ValueError("margins and aucs must align")
    if obs.size < 3:
        raise ValueError("need n >= 3")
    pred = np.array([phi(s / sig) if sig > 0 else 0.5 for s, sig in pairs])
    ss_res = float(np.sum((obs - pred) ** 2))
    ss_tot = float(np.sum((obs - obs.mean()) ** 2))
    # Constant observations leave no variance to explain; the mean can
    # still carry rounding noise, so test the values, not ss_tot.
    degenerate = bool(np.all(obs == obs[0]))
    r2 = 0.0 if degenerate else 1.0 - ss_res / ss_tot
    return CalibrationFit(
        r_squared=r2,
        inversion_accuracy=_pairwise_sign_agreement(pred, obs),
        n=int(obs.size),
        degenerate=degenerate,
    )


def _tie_sums(values: np.ndarray) -> tuple[int, int, int]:
    """(sum t(t-1)/2, sum t(t-1)(t-2), sum t(t-1)(2t+5)) over tie groups."""
    _, counts = np.unique(values, return_counts=True)
    t = counts.astype(np.int64)
    pairs = _tied_pairs(t)
    triples = int(np.sum(t * (t - 1) * (t - 2)))
    v = int(np.sum(t * (t - 1) * (2 * t + 5)))
    return pairs, triples, v


def kendall_tau(a, b) -> tuple[float, float]:
    """Kendall tau-b with tie correction; p by normal approximation.

    Returns (nan, nan) when either input is completely tied (tau-b
    undefined).
    """
    x = np.asarray(a, dtype=float)
    y = np.asarray(b, dtype=float)
    if x.size != y.size:
        raise ValueError("inputs must have equal length")
    n = int(x.size)
    if n < 2:
        raise ValueError("need length >= 2")

    concordant, discordant = _concordance(x, y)

    n0 = n * (n - 1) // 2
    n1, triples_x, vx = _tie_sums(x)
    n2, triples_y, vy = _tie_sums(y)
    if n1 == n0 or n2 == n0:
        return (math.nan, math.nan)

    tau = (concordant - discordant) / math.sqrt((n0 - n1) * (n0 - n2))

    # Variance of C - D under the null, with tie correction.
    v0 = n * (n - 1) * (2 * n + 5)
    var = (v0 - vx - vy) / 18.0
    if n > 2:
        var += triples_x * triples_y / (9.0 * n * (n - 1) * (n - 2))
    var += (2.0 * n1) * (2.0 * n2) / (2.0 * n * (n - 1))
    if var <= 0:
        return (tau, 1.0)
    z = (concordant - discordant) / math.sqrt(var)
    p = 2.0 * (1.0 - phi(abs(z)))
    return (tau, min(1.0, p))


def mcnemar(wins: int, losses: int) -> dict[str, float]:
    """Paired-outcome test on discordant counts.

    p_exact: two-sided exact binomial, 2 * min(P(X <= m), P(X >= m))
    capped at 1, X ~ Binomial(wins + losses, 0.5), m = min(wins, losses).
    p_chi2: survival of (wins - losses)^2 / (wins + losses) under
    chi-square(1). p_exact_one_sided (the single tail P(X <= m)) is
    emitted as a diagnostic because published tables are sometimes
    one-sided.
    """
    if wins < 0 or losses < 0:
        raise ValueError("counts must be non-negative")
    n = wins + losses
    if n == 0:
        return {"p_exact": 1.0, "p_chi2": 1.0, "p_exact_one_sided": 1.0}
    m = min(wins, losses)
    denom = 1 << n
    below = sum(math.comb(n, i) for i in range(0, m + 1))
    above = denom - below + math.comb(n, m)  # sum of comb(n, i) for i in m..n
    one_sided = Fraction(below, denom)
    p_exact = 2 * min(one_sided, Fraction(above, denom))
    p_exact = min(p_exact, Fraction(1))

    stat = (wins - losses) ** 2 / n
    p_chi2 = math.erfc(math.sqrt(stat / 2.0))  # chi-square(1) survival
    return {
        "p_exact": float(p_exact),
        "p_chi2": p_chi2,
        "p_exact_one_sided": float(one_sided),
    }


def cohen_kappa(labels_a, labels_b) -> float:
    """Chance-corrected agreement between two label sequences."""
    a = list(labels_a)
    b = list(labels_b)
    if len(a) != len(b):
        raise ValueError("label sequences must align")
    if not a:
        raise ValueError("need at least one pair")
    n = len(a)
    observed = sum(1 for x, y in zip(a, b) if x == y) / n
    cats = set(a) | set(b)
    expected = sum((a.count(c) / n) * (b.count(c) / n) for c in cats)
    if expected == 1.0:
        return 1.0 if observed == 1.0 else 0.0
    return (observed - expected) / (1.0 - expected)

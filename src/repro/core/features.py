"""Feature selection for WCET models (paper Algorithm 1).

The offline phase selects, per signal-processing task, the subset of
vRAN-state features with the most impact on the task runtime:

1. rank features by **distance correlation** with the runtime
   (Székely-Rizzo; implemented from scratch — the paper used R's
   ``Rfast::dcor``) and keep the top ``N``.  For 1-D samples the
   statistic is computed in O(n log n) from sorts, cumsums and a
   vectorised merge (Huo & Székely 2016), never from n×n matrices;
2. prune to ``M`` features with **backwards elimination** on a held-out
   split of an OLS model;
3. union the result with hand-picked, domain-expert features.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

__all__ = [
    "distance_correlation",
    "rank_by_distance_correlation",
    "backwards_elimination",
    "select_features",
]


def _row_sums(v: np.ndarray) -> np.ndarray:
    """Σ_j |v_i − v_j| for every i, from one sort and a cumsum."""
    n = len(v)
    order = np.argsort(v, kind="stable")
    s = v[order]
    prefix = np.concatenate(([0.0], np.cumsum(s)))
    k = np.arange(n)
    sums = np.empty(n)
    sums[order] = (s * k - prefix[:-1]) + (prefix[-1] - prefix[1:]
                                          - s * (n - 1 - k))
    return sums


def _dominance_sums(rank: np.ndarray, f: np.ndarray) -> np.ndarray:
    """``out[:, j] = Σ f[:, i]`` over i < j with ``rank[i] < rank[j]``.

    Bottom-up merge: at the level of width ``w`` every pair (i, j) with
    i in the left and j in the right half of one 2w-block is counted
    once.  The left halves are sorted by the key ``block·(n+1) + rank``
    so one cumsum and two ``searchsorted`` calls give each right-half
    element its dominated sum; ⌈log₂ n⌉ vectorised levels in all.
    """
    n = len(rank)
    out = np.zeros_like(f)
    pos = np.arange(n)
    width = 1
    while width < n:
        block = pos // (2 * width)
        is_left = (pos // width) % 2 == 0
        left, right = pos[is_left], pos[~is_left]
        keys = block[left] * (n + 1) + rank[left]
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        csum = np.zeros((f.shape[0], len(left) + 1))
        np.cumsum(f[:, left[order]], axis=1, out=csum[:, 1:])
        base = block[right] * (n + 1)
        hi = np.searchsorted(keys, base + rank[right], side="left")
        lo = np.searchsorted(keys, base, side="left")
        out[:, right] += csum[:, hi] - csum[:, lo]
        width *= 2
    return out


def _cross_sum(x: np.ndarray, y: np.ndarray) -> float:
    """Σ_ij |x_i − x_j|·|y_i − y_j| in O(n log n) (centre x, y first:
    the expansion below cancels large terms otherwise).

    With x sorted, each pair i < j contributes
    (X_j − X_i)(Y_j − Y_i)·sign(Y_j − Y_i).  Tied y values contribute
    zero whatever sign they get, so the sum over i < j is 2·D − Σ_{i<j}
    (X_j − X_i)(Y_j − Y_i), where D is the same product summed over the
    pairs with Y_i < Y_j; the full sum is twice that.  Expanding the
    product turns D into four dominance sums of f ∈ {1, Y, X, XY}; the
    all-pairs term has a closed form.
    """
    n = len(x)
    order = np.argsort(x, kind="stable")
    xs, ys = x[order], y[order]
    rank = np.searchsorted(np.sort(y), ys, side="left")
    dom = _dominance_sums(rank, np.stack([np.ones(n), ys, xs, xs * ys]))
    d = float(np.sum(xs * ys * dom[0] - xs * dom[1] - ys * dom[2]
                     + dom[3]))
    all_pairs = n * float(np.dot(x, y)) - float(x.sum()) * float(y.sum())
    return 2.0 * (2.0 * d - all_pairs)


def distance_correlation(
    x: np.ndarray,
    y: np.ndarray,
    max_samples: int = 1500,
    rng: Optional[np.random.Generator] = None,
) -> float:
    """Distance correlation between two 1-D samples, in [0, 1].

    The V-statistic of Székely–Rizzo, computed in O(n log n) without
    the n×n distance matrices (Huo & Székely 2016): with r the row sums
    of |x_i − x_j| and T their total, the double-centred sum is
    Σ a_ij b_ij − (2/n)·Σ r^a_i r^b_i + T^a T^b / n², and Σ a_ij² is
    2n·Σ(x − x̄)².  Inputs longer than ``max_samples`` are still
    subsampled with one ``rng.choice`` draw, so feature rankings match
    the matrix formulation draw for draw.  A constant sample
    (``ptp == 0``) gives exactly 0.
    """
    x = np.asarray(x, dtype=np.float64).ravel()
    y = np.asarray(y, dtype=np.float64).ravel()
    if len(x) != len(y):
        raise ValueError("x and y must have the same length")
    if len(x) < 2:
        raise ValueError("need at least two samples")
    if len(x) > max_samples:
        rng = rng if rng is not None else np.random.default_rng(0)
        idx = rng.choice(len(x), size=max_samples, replace=False)
        x, y = x[idx], y[idx]
    if np.ptp(x) == 0 or np.ptp(y) == 0:
        return 0.0
    n = len(x)
    x = x - x.mean()
    y = y - y.mean()
    rx, ry = _row_sums(x), _row_sums(y)
    tx, ty = float(rx.sum()), float(ry.sum())
    nn = float(n) * n
    dcov2 = (_cross_sum(x, y) - 2.0 / n * float(np.dot(rx, ry))
             + tx * ty / nn) / nn
    dvar_x = (2.0 * n * float(np.dot(x, x))
              - 2.0 / n * float(np.dot(rx, rx)) + tx * tx / nn) / nn
    dvar_y = (2.0 * n * float(np.dot(y, y))
              - 2.0 / n * float(np.dot(ry, ry)) + ty * ty / nn) / nn
    if dvar_x <= 0 or dvar_y <= 0:
        return 0.0
    dcor2 = dcov2 / np.sqrt(dvar_x * dvar_y)
    return float(np.sqrt(max(0.0, dcor2)))


def rank_by_distance_correlation(
    X: np.ndarray,
    y: np.ndarray,
    top_n: int,
    max_samples: int = 1500,
    rng: Optional[np.random.Generator] = None,
) -> list[int]:
    """Indices of the ``top_n`` features most dCor-correlated with y."""
    X = np.asarray(X, dtype=np.float64)
    scores = [
        distance_correlation(X[:, j], y, max_samples=max_samples, rng=rng)
        for j in range(X.shape[1])
    ]
    order = np.argsort(scores)[::-1]
    return [int(j) for j in order[:top_n]]


def _validation_mse(
    X: np.ndarray, y: np.ndarray, columns: Sequence[int],
    split: float = 0.75,
) -> float:
    """Held-out MSE of an OLS model restricted to ``columns``."""
    n = len(y)
    cut = max(1, int(n * split))
    train_x = np.column_stack([X[:cut, list(columns)],
                               np.ones(cut)])
    test_x = np.column_stack([X[cut:, list(columns)],
                              np.ones(n - cut)])
    coeffs, *_ = np.linalg.lstsq(train_x, y[:cut], rcond=None)
    pred = test_x @ coeffs
    return float(np.mean((y[cut:] - pred) ** 2))


def backwards_elimination(
    X: np.ndarray,
    y: np.ndarray,
    candidates: Sequence[int],
    keep_m: int,
) -> list[int]:
    """Greedy backwards elimination down to ``keep_m`` features.

    Repeatedly drops the feature whose removal hurts held-out OLS error
    the least.  Deterministic given its inputs.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    current = list(candidates)
    if keep_m < 1:
        raise ValueError("keep_m must be >= 1")
    while len(current) > keep_m:
        best_error = None
        best_drop = None
        for drop in current:
            trial = [c for c in current if c != drop]
            error = _validation_mse(X, y, trial)
            if best_error is None or error < best_error:
                best_error = error
                best_drop = drop
        current.remove(best_drop)
    return current


def select_features(
    X: np.ndarray,
    y: np.ndarray,
    handpicked: Sequence[int] = (),
    top_n: int = 8,
    keep_m: int = 5,
    max_samples: int = 1500,
    rng: Optional[np.random.Generator] = None,
) -> list[int]:
    """Algorithm 1's feature pipeline: dCor top-N -> back-elim M -> ∪ hand."""
    ranked = rank_by_distance_correlation(X, y, top_n,
                                          max_samples=max_samples, rng=rng)
    pruned = backwards_elimination(X, y, ranked, min(keep_m, len(ranked)))
    selected = sorted(set(pruned) | set(handpicked))
    return selected

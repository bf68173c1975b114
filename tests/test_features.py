"""Tests for feature selection (distance correlation, backwards elimination)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.features import (
    backwards_elimination,
    distance_correlation,
    rank_by_distance_correlation,
    select_features,
)
from repro.core.training import collect_offline_dataset
from repro.ran.config import PoolConfig, cell_20mhz_fdd


def _centered_distance_matrix(v: np.ndarray) -> np.ndarray:
    """Double-centered pairwise-distance matrix of a 1-D sample."""
    d = np.abs(v[:, None] - v[None, :])
    row_mean = d.mean(axis=1, keepdims=True)
    col_mean = d.mean(axis=0, keepdims=True)
    return d - row_mean - col_mean + d.mean()


def reference_distance_correlation(x, y, max_samples=1500, rng=None):
    """The textbook O(n²) formula: two double-centred n×n matrices.

    Draws the same subsample as :func:`distance_correlation`, so the
    two can be compared on any input.
    """
    x = np.asarray(x, dtype=np.float64).ravel()
    y = np.asarray(y, dtype=np.float64).ravel()
    if len(x) > max_samples:
        rng = rng if rng is not None else np.random.default_rng(0)
        idx = rng.choice(len(x), size=max_samples, replace=False)
        x, y = x[idx], y[idx]
    a = _centered_distance_matrix(x)
    b = _centered_distance_matrix(y)
    dcov2 = float((a * b).mean())
    dvar_x = float((a * a).mean())
    dvar_y = float((b * b).mean())
    if dvar_x <= 0 or dvar_y <= 0:
        return 0.0
    dcor2 = dcov2 / np.sqrt(dvar_x * dvar_y)
    return float(np.sqrt(max(0.0, dcor2)))


def reference_ranking(X, y, max_samples=1500, rng=None):
    """Every feature index, best first, scored by the reference."""
    scores = [reference_distance_correlation(X[:, j], y, max_samples, rng)
              for j in range(X.shape[1])]
    return [int(j) for j in np.argsort(scores)[::-1]]


def _column(kind: str, n: int, scale: float, rng, base=None):
    if kind == "normal":
        v = rng.normal(size=n)
    elif kind == "discrete":
        v = rng.integers(0, 4, n).astype(float)
    elif kind == "binary":
        v = rng.integers(0, 2, n).astype(float)
    elif kind == "rounded":  # ties in y that follow x
        v = np.round(base + rng.normal(0, 0.5, n))
    else:  # "square": a nonlinear function of x
        v = base ** 2
    return v * scale


class TestDistanceCorrelation:
    def test_perfect_linear_dependence(self):
        x = np.linspace(0, 1, 200)
        assert distance_correlation(x, 3 * x + 1) == pytest.approx(1.0, abs=1e-6)

    def test_detects_nonlinear_dependence(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-1, 1, 400)
        y = x**2  # Pearson correlation would be ~0 here
        assert distance_correlation(x, y) > 0.4

    def test_independent_variables_near_zero(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=800)
        y = rng.normal(size=800)
        assert distance_correlation(x, y) < 0.15

    def test_constant_input_gives_zero(self):
        x = np.ones(100)
        y = np.arange(100.0)
        assert distance_correlation(x, y) == 0.0

    def test_constant_inexact_float_gives_exact_zero(self):
        # 0.1 is not a binary fraction: cumsums over it leave round-off
        # that a ratio of variance terms would turn into a score.
        x = np.full(300, 0.1)
        y = np.random.default_rng(8).normal(size=300)
        assert distance_correlation(x, y) == 0.0
        assert distance_correlation(y, x) == 0.0

    def test_constant_y_gives_zero(self):
        x = np.arange(50.0)
        assert distance_correlation(x, np.full(50, 3.3)) == 0.0

    def test_two_samples(self):
        assert distance_correlation([0.0, 1.0], [5.0, 2.0]) == \
            pytest.approx(1.0, abs=1e-12)
        assert distance_correlation([0.1, 0.1], [5.0, 2.0]) == 0.0

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            distance_correlation(np.ones(3), np.ones(4))

    def test_too_few_samples_raises(self):
        with pytest.raises(ValueError):
            distance_correlation(np.ones(1), np.ones(1))

    def test_subsampling_path(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(size=5000)
        y = 2 * x + rng.normal(0, 0.01, 5000)
        value = distance_correlation(x, y, max_samples=500,
                                     rng=np.random.default_rng(0))
        assert value > 0.95

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_bounded_and_symmetric(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=120)
        y = rng.normal(size=120) + 0.3 * x
        forward = distance_correlation(x, y)
        backward = distance_correlation(y, x)
        assert 0.0 <= forward <= 1.0 + 1e-9
        assert forward == pytest.approx(backward, abs=1e-9)


@st.composite
def _sample_pairs(draw):
    n = draw(st.integers(min_value=2, max_value=400))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    x_kind = draw(st.sampled_from(("normal", "discrete", "binary")))
    y_kind = draw(st.sampled_from(
        ("normal", "discrete", "binary", "rounded", "square")))
    x_scale = 10.0 ** draw(st.integers(min_value=-6, max_value=6))
    y_scale = 10.0 ** draw(st.integers(min_value=-6, max_value=6))
    offset = draw(st.sampled_from((0.0, -3.0, 1e4)))
    rng = np.random.default_rng(seed)
    x = _column(x_kind, n, x_scale, rng) + offset * x_scale
    y = _column(y_kind, n, y_scale, rng, base=x / x_scale)
    return x, y


class TestAgainstReference:
    """The O(n log n) statistic against the double-centred matrices.

    The comparison is on dCor²: that is what both formulas compute up
    to round-off.  Near dCor = 0 the square root turns 1e-16 of noise
    into ~1e-8 (an exactly independent 2x2 table scores ~1e-8 in either
    formula), so 1e-12 on dCor² is the well-posed form of "within 1e-9"
    and implies it wherever dCor >= 1e-3.
    """

    @given(_sample_pairs())
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_matches_matrix_formula(self, pair):
        x, y = pair
        got = distance_correlation(x, y)
        want = reference_distance_correlation(x, y)
        assert got ** 2 == pytest.approx(want ** 2, abs=1e-12)
        if want >= 1e-3:
            assert got == pytest.approx(want, abs=1e-9)

    def test_profiled_pool_ranking_matches_reference(self):
        pool = PoolConfig(cells=(cell_20mhz_fdd(),), num_cores=4,
                          deadline_us=2000.0)
        dataset = collect_offline_dataset(pool, num_slots=150, seed=11)
        for task_type in dataset.task_types():
            X, y = dataset.arrays(task_type)
            ranked = rank_by_distance_correlation(
                X, y, top_n=X.shape[1], max_samples=400,
                rng=np.random.default_rng(5))
            assert ranked == reference_ranking(
                X, y, max_samples=400, rng=np.random.default_rng(5)), \
                task_type


class TestRanking:
    def test_relevant_features_rank_first(self):
        rng = np.random.default_rng(3)
        n = 600
        X = rng.uniform(size=(n, 5))
        y = 10 * X[:, 2] + 3 * X[:, 4] + rng.normal(0, 0.05, n)
        top = rank_by_distance_correlation(X, y, top_n=2)
        assert set(top) == {2, 4}


class TestBackwardsElimination:
    def test_drops_noise_features(self):
        rng = np.random.default_rng(4)
        n = 800
        X = rng.uniform(size=(n, 4))
        y = 5 * X[:, 0] + 2 * X[:, 1] + rng.normal(0, 0.05, n)
        kept = backwards_elimination(X, y, candidates=[0, 1, 2, 3], keep_m=2)
        assert set(kept) == {0, 1}

    def test_keep_m_validation(self):
        with pytest.raises(ValueError):
            backwards_elimination(np.ones((10, 2)), np.ones(10), [0, 1], 0)

    def test_noop_when_already_small(self):
        X = np.random.default_rng(5).uniform(size=(100, 3))
        y = X[:, 0]
        assert backwards_elimination(X, y, [0], keep_m=2) == [0]


class TestSelectFeatures:
    def test_handpicked_always_included(self):
        rng = np.random.default_rng(6)
        n = 500
        X = rng.uniform(size=(n, 6))
        y = 4 * X[:, 1] + rng.normal(0, 0.05, n)
        selected = select_features(X, y, handpicked=(5,), top_n=3, keep_m=2)
        assert 5 in selected
        assert 1 in selected

    def test_result_sorted_and_unique(self):
        rng = np.random.default_rng(7)
        X = rng.uniform(size=(300, 4))
        y = X[:, 0] + X[:, 1]
        selected = select_features(X, y, handpicked=(0,), top_n=3, keep_m=3)
        assert selected == sorted(set(selected))

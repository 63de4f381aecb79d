import numpy as np
import pytest

import linsaddle as ls
from linsaddle.curvature import _kernel_basis
from linsaddle.ranktol import TAU_CRIT_REL, RankTolerance, criticality_tol, floored, rank_cut


def test_rank_cut_counts_strictly_above_the_threshold():
    # 0.25 * 2 and 0.5 + 0 are exact, so the second value equals the threshold.
    s = np.array([2.0, 0.5, 0.4])
    assert rank_cut(s, (3, 3), RankTolerance(relative=0.25)) == 1
    assert rank_cut(s, (3, 3), RankTolerance(absolute=0.5, relative=0.0)) == 1
    assert rank_cut(s, (3, 3), RankTolerance(absolute=0.4, relative=0.0)) == 2


@pytest.mark.parametrize("value", [-1e-12, -1.0, float("nan"), float("inf")])
@pytest.mark.parametrize("part", ["absolute", "relative"])
def test_rank_tolerance_refuses_a_negative_or_non_finite_part(part, value):
    with pytest.raises(ValueError, match="rank tolerance parts must be finite and nonnegative"):
        RankTolerance(**{part: value})


def test_criticality_tol_is_the_caller_s_or_relative_to_the_scale():
    assert criticality_tol(None, 3.0) == TAU_CRIT_REL * 3.0
    assert criticality_tol(0.0, 3.0) == 0.0 and criticality_tol(0.25, 3.0) == 0.25


@pytest.mark.parametrize("tau_crit", [-1e-12, float("nan"), float("inf")])
def test_criticality_tol_refuses_a_negative_or_non_finite_value(tau_crit):
    with pytest.raises(ValueError, match="criticality tolerance must be finite and nonnegative"):
        criticality_tol(tau_crit, 1.0)


def test_rank_cut_of_zero_and_empty_spectra():
    for tol in (RankTolerance(), RankTolerance(relative=0.0)):
        assert rank_cut(np.zeros(3), (3, 4), tol) == 0
        assert rank_cut(np.zeros(0), (0, 4), tol) == 0


def test_numeric_rank_of_empty_and_non_finite_matrices():
    assert ls.numeric_rank(np.zeros((0, 3))) == 0
    assert ls.numeric_rank(np.zeros((3, 0))) == 0
    with pytest.raises(ValueError, match="numeric_rank requires finite entries"):
        ls.numeric_rank(np.array([[1.0, np.nan]]))


@pytest.mark.parametrize("shape", [(4, 6), (6, 4), (5, 5), (3, 7)])
def test_kernel_basis_has_the_nullity_of_numeric_rank(shape):
    # Singular values from 1 down to 1e-14: each tolerance cuts the spectrum
    # at another place, and the kernel basis must always take the rest.
    rng = np.random.default_rng(sum(shape))
    k = min(shape)
    U = np.linalg.qr(rng.standard_normal((shape[0], k)))[0]
    V = np.linalg.qr(rng.standard_normal((shape[1], k)))[0]
    M = U @ np.diag(np.logspace(0, -14, k)) @ V.T
    tols = [RankTolerance(), RankTolerance(relative=1e-3), RankTolerance(absolute=1e-8),
            RankTolerance(relative=2.0), floored(RankTolerance(), 24, [1.0, 30.0])]
    nullities = set()
    for tol in tols:
        N = _kernel_basis(M, tol)
        nullity = shape[1] - ls.numeric_rank(M, tol)
        assert N.shape == (shape[1], nullity)
        assert np.allclose(N.T @ N, np.eye(nullity), atol=1e-12)
        thr = tol.threshold(shape, 1.0)
        assert np.linalg.norm(M @ N, 2) <= thr + 1e-14
        nullities.add(nullity)
    assert len(nullities) >= 3

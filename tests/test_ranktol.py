import numpy as np
import pytest

import linsaddle as ls
from linsaddle.curvature import _kernel_basis
from linsaddle.ranktol import RankTolerance, floored, rank_cut


def test_rank_cut_counts_strictly_above_the_threshold():
    # 0.25 * 2 and 0.5 + 0 are exact, so the second value equals the threshold.
    s = np.array([2.0, 0.5, 0.4])
    assert rank_cut(s, (3, 3), RankTolerance(relative=0.25)) == 1
    assert rank_cut(s, (3, 3), RankTolerance(absolute=0.5, relative=0.0)) == 1
    assert rank_cut(s, (3, 3), RankTolerance(absolute=0.4, relative=0.0)) == 2


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

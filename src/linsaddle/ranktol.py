"""The numerical policy: every tolerance of linsaddle, and numeric rank.

Every verdict is a rank cut on partial matrix products, so the thresholds
live here, each compared with a quantity of its own units:

- rank cuts count singular values above ``RankTolerance.threshold``:
  absolute + relative * sigma_max (relative defaults to max(shape) * eps).
  ``product_rank_tolerance`` floors the absolute part at the rounding error
  of the layer products, 100 H eps prod max(1, ||W_h||_2); ``classify``,
  ``canonical_form`` and the tightened-point certificate cut with it;
- first-order criticality: ||grad|| <= TAU_CRIT_REL * criticality_scale,
  the natural size of a gradient, 1 + ||W|| (||Sigma_XX|| + ||Sigma_YX||);
- canonical block equations: residual <= EPS_CANON (1 + ||W|| + ||C||),
  C = Sigma_YX Sigma_XX^{-1}, and the product identities of a tightened
  point within EPS_CANON (1 + ||W|| + ||Sigma_XY||); blocks D are refused
  past condition number D_COND_LIMIT;
- witnesses: a measured c2 is negative by more than EPS_WITNESS times the
  sum of the magnitudes of its two terms; a pivot data block T counts as
  zero when sigma_1(T) <= BETA_ZERO_TOL times the product of the 2-norms of
  its three factors, and BETA_ZERO_TOL is also the absolute zero of a
  witness's quadratic coefficient and of the inner image of its kernel;
- the standing assumption: eigenvalue gaps and lambda_min above
  EPS_GAP * lambda_1; the bundle's singular factors orthogonal to
  EPS_ORTH * d_y and reconstructing to EPS_SVD relative.

Only the rank tolerance (``--tol-rank``), the criticality tolerance
(``--tol-crit``) and the probe's tolerance (``--tol-eig``) are inputs; the
constants are fixed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .data_model import SigmaBundle
    from .network import Weights

TAU_CRIT_REL = 1e-6
EPS_CANON = 1e-8
D_COND_LIMIT = 1e8
EPS_WITNESS = 1e-8
EPS_GAP = 1e-10
EPS_ORTH = 1e-10
EPS_SVD = 1e-10
BETA_ZERO_TOL = 1e-12


@dataclass(frozen=True)
class RankTolerance:
    """Singular values are counted if > absolute + relative * sigma_max.

    relative=None means the numpy-style default max(rows, cols) * eps.
    """

    absolute: float = 0.0
    relative: float | None = None

    def threshold(self, shape: tuple[int, int], sigma_max: float) -> float:
        rel = self.relative
        if rel is None:
            rel = max(shape) * np.finfo(float).eps
        return self.absolute + rel * sigma_max


def numeric_rank(M: np.ndarray, tol: RankTolerance = RankTolerance()) -> int:
    """Count singular values above the tolerance threshold."""
    M = np.asarray(M, dtype=float)
    if M.size == 0:
        return 0
    if not np.all(np.isfinite(M)):
        raise ValueError("numeric_rank requires finite entries")
    s = np.linalg.svd(M, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > tol.threshold(M.shape, float(s[0]))))


def criticality_scale(w: Weights, bundle: SigmaBundle) -> float:
    """Natural magnitude of gradient entries at generic weights."""
    data_norm = np.linalg.norm(bundle.sigma_xx) + np.linalg.norm(bundle.sigma_yx)
    return 1.0 + w.frob_norm() * data_norm


def product_rank_tolerance(
    w: Weights, rank_tol: RankTolerance = RankTolerance()
) -> RankTolerance:
    """Rank tolerance with an absolute floor at the forward rounding error of
    the layer products (times a safety factor).  Matrix products of many
    layers carry O(eps * prod ||W_h||) noise that a purely relative
    machine-precision cutoff would count as genuine singular values."""
    prod = 1.0
    for M in w.layers:
        prod *= max(1.0, np.linalg.norm(M, 2))
    floor = 100.0 * w.shape.H * np.finfo(float).eps * prod
    return RankTolerance(
        absolute=max(rank_tol.absolute, floor), relative=rank_tol.relative
    )

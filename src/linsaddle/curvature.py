"""Second-order analysis along lines W + t V.

The square loss restricted to a line is a polynomial of degree 2H in t; its
quadratic coefficient c2 decides strictness of saddles.  This module provides
the exact polynomial expansion, an O(H) evaluator and Hessian for c2,
negative-curvature witnesses for the two saddle mechanisms, and the
nonnegative decomposition of c2 at tightened points.  The eigenvector-swap
witness moves mass from a used to a larger unused eigenvalue.  The
untightened-pivot witness is one construction for every pivot (i, j): a
rank-one perturbation of layer j from the kernel of the layers above it,
fed by a rank-one perturbation of layer i, both taken from singular vectors
(or, when the two layers are adjacent, from the kernel direction with the
least quadratic coefficient) rather than from coordinates or from a
particular kernel basis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .critical_points import _canonical_blocks, clem_d_matrix
from .data_model import DataMatrices, SigmaBundle
from .errors import (
    InternalInconsistency,
    InvalidPivot,
    InvalidShape,
    NeedsCanonicalization,
    NotApplicable,
    NotTightened,
    ProbeNotConverged,
    TooDeep,
    TooLarge,
)
from .network import (
    Direction,
    NetworkShape,
    Weights,
    flatten,
    global_map,
    partial_middle,
    partial_prefix,
    partial_suffix,
    unflatten,
)
from .ranktol import (
    BETA_ZERO_TOL,
    EPS_CANON,
    RankTolerance,
    numeric_rank,
    product_rank_tolerance,
)

MAX_TAYLOR_DEPTH = 12
MAX_DENSE_PARAMS = 2000
# Lanczos steps, one Hessian-vector product each, before the probe raises
# ProbeNotConverged; probes at deep example points converge in 20 to 40.
PROBE_MAXITER = 300
PROBE_SEED = 0  # of the probe's start vector, so that probes repeat exactly


# ---------------------------------------------------------------------------
# Exact polynomial expansion of the loss along a line.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TaylorCoeffs:
    """Coefficients c_0 .. c_{2H} of t -> L(W + t V)."""

    coeffs: np.ndarray

    def value(self, t: float) -> float:
        # highest degree first for polyval
        return float(np.polyval(self.coeffs[::-1], t))

    @property
    def c2(self) -> float:
        return float(self.coeffs[2])


def _line_orders(w: Weights, v: Direction, X: np.ndarray, order: int) -> list:
    """A_0 .. A_order: the terms of (W_H + t V_H) ... (W_1 + t V_1) X grouped
    by their power of t, where A_k sums every way of substituting k layers by
    their perturbations.  One pass over the layers updates all orders
    (A_k <- W_h A_k + V_h A_{k-1}); orders above `order` are dropped."""
    A = [X]
    for Wh, Vh in zip(w.layers, v.layers):
        new = [Wh @ A[0]]
        for k in range(1, len(A)):
            new.append(Wh @ A[k] + Vh @ A[k - 1])
        if len(A) <= order:
            new.append(Vh @ A[-1])
        A = new
    return A


def taylor_coeffs(w: Weights, v: Direction, data: DataMatrices) -> TaylorCoeffs:
    """Exact coefficients of the degree-2H polynomial t -> L(W + t V)."""
    H = w.shape.H
    if H > MAX_TAYLOR_DEPTH:
        raise TooDeep(f"depth {H} exceeds exact-expansion guard {MAX_TAYLOR_DEPTH}")
    if v.shape.dims != w.shape.dims:
        raise InvalidShape("direction shape does not match weights")
    A = _line_orders(w, v, data.X, H)
    B = [A[0] - data.Y] + A[1:]
    coeffs = np.zeros(2 * H + 1)
    for k in range(H + 1):
        for l in range(H + 1):
            coeffs[k + l] += float(np.sum(B[k] * B[l]))
    return TaylorCoeffs(coeffs=coeffs)


# ---------------------------------------------------------------------------
# Quadratic form and Hessian at a fixed point, in O(H) products each.
# ---------------------------------------------------------------------------

class CurvatureCache:
    """Forward and backward passes at a fixed W for repeated c2 evaluation
    and Hessian-vector products.

    Keeps the residual R = W_H..W_1 X - Y and, built on the first
    Hessian-vector product, the forward products P_h = W_h..W_1 X (P_0 = X)
    and the backward adjoints B_h = (W_H..W_{h+1})^T R (B_H = R), all read
    off the weights' product table: O(H) arrays of m columns.
    c2(V) = ||A_1||^2 + 2 <A_2, R> from the order-2 truncation of the line
    expansion needs only R; the Hessian acts on V by Pearlmutter's
    R-operator on the two passes.  Each costs O(H) matrix products.
    """

    def __init__(self, w: Weights, data: DataMatrices):
        if w.shape.d_x != data.d_x or w.shape.d_y != data.d_y:
            raise InvalidShape("weights incompatible with data")
        self.w = w
        self.data = data
        self.H = w.shape.H
        self.R = global_map(w) @ data.X - data.Y

    @cached_property
    def P(self) -> list:
        return [partial_prefix(self.w, h) @ self.data.X for h in range(self.H + 1)]

    @cached_property
    def B(self) -> list:
        return [partial_suffix(self.w, h + 1).T @ self.R for h in range(self.H + 1)]

    def c2_terms(self, v: Direction) -> tuple[float, float]:
        """The two terms of c2(V): ||A_1||^2 and 2 <A_2, R>."""
        _, A1, A2 = _line_orders(self.w, v, self.data.X, 2)
        return float(np.sum(A1 * A1)), 2.0 * float(np.sum(A2 * self.R))

    def c2(self, v: Direction) -> float:
        quad, cross = self.c2_terms(v)
        return quad + cross

    def hessian_matvec(self, flat: np.ndarray) -> np.ndarray:
        """Action of the Hessian of t -> L(W + tV) at t=0 (i.e. of 2 c2).

        With dP_h and dB_h the derivatives of P_h and B_h along V, the
        gradient 2 B_h P_{h-1}^T has derivative
        2 (dB_h P_{h-1}^T + B_h dP_{h-1}^T)."""
        v = unflatten(np.ravel(flat), self.w.shape.dims)
        H, W, P, B = self.H, self.w.layers, self.P, self.B
        dP = [np.zeros_like(P[0])]
        for h in range(1, H + 1):
            dP.append(W[h - 1] @ dP[-1] + v[h - 1] @ P[h - 1])
        dB = [None] * (H + 1)
        dB[H] = dP[H]
        for h in range(H, 1, -1):
            dB[h - 1] = W[h - 1].T @ dB[h] + v[h - 1].T @ B[h]
        return flatten([
            2.0 * (dB[h] @ P[h - 1].T + B[h] @ dP[h - 1].T) for h in range(1, H + 1)
        ])


def c2_value(w: Weights, v: Direction, data: DataMatrices) -> float:
    return CurvatureCache(w, data).c2(v)


def hessian_dense(w: Weights, data: DataMatrices) -> np.ndarray:
    """Dense Hessian of the loss at W (second derivative along lines is
    2 c2): the Hessian-vector products with the unit vectors, guarded by a
    parameter-count limit."""
    n = w.shape.n_params
    if n > MAX_DENSE_PARAMS:
        raise TooLarge(f"{n} parameters exceed dense-Hessian guard {MAX_DENSE_PARAMS}")
    cache = CurvatureCache(w, data)
    return np.column_stack([cache.hessian_matvec(e) for e in np.eye(n)])


def _lanczos_min(matvec, n: int, tol: float):
    """Smallest eigenpair (theta, x) of the symmetric operator `matvec` on R^n.

    Lanczos from a seeded start vector, with full reorthogonalization (two
    classical Gram-Schmidt passes) and no restarts, so that a zero
    eigenvalue is not skipped as it is by restarted solvers that lock onto
    the smallest nonzero one.  The basis grows with the steps taken.  Stops
    when the Ritz residual |beta_k s_k| of the smallest Ritz value is at
    most tol * max|theta|, or when beta_k <= 1e-12 * max|theta| (the Krylov
    space is invariant); after PROBE_MAXITER steps raises ProbeNotConverged.
    """
    q = np.random.default_rng(PROBE_SEED).standard_normal(n)
    Q = np.empty((min(16, n), n))
    Q[0] = q / np.linalg.norm(q)
    alpha, beta = [], []
    for k in range(1, min(PROBE_MAXITER, n) + 1):
        v = matvec(Q[k - 1])
        alpha.append(float(Q[k - 1] @ v))
        for _ in range(2):
            v -= Q[:k].T @ (Q[:k] @ v)
        b = float(np.linalg.norm(v))
        theta, s = np.linalg.eigh(np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1))
        scale = float(np.abs(theta).max())
        if abs(b * s[-1, 0]) <= tol * scale or b <= 1e-12 * scale:
            return float(theta[0]), Q[:k].T @ s[:, 0]
        if k == len(Q):
            Q = np.concatenate([Q, np.empty_like(Q)])
        Q[k] = v / b
        beta.append(b)
    raise ProbeNotConverged(f"Lanczos probe did not converge in {k} steps")


def hessian_min_eig(
    w: Weights, data: DataMatrices, mode: str = "dense", tol: float = 1e-6,
    return_vector: bool = False,
):
    """Smallest eigenvalue of the Hessian at W: dense eigh for small nets,
    matrix-free Lanczos probe otherwise.  With return_vector the matching
    eigenvector is reshaped to a Direction and returned alongside.

    The probe (``_lanczos_min``) starts from a seeded vector, so it repeats
    exactly, and finds a zero lambda_min at non-strict saddles.  It stops
    when its Ritz residual is at most tol times the largest Ritz value's
    magnitude, or when the Krylov space is invariant; a probe short of that
    after PROBE_MAXITER Lanczos steps raises ProbeNotConverged."""
    if mode == "dense":
        M = hessian_dense(w, data)
        if not return_vector:
            return float(np.linalg.eigvalsh(M)[0])
        vals, vecs = np.linalg.eigh(M)
        lam, vec = float(vals[0]), vecs[:, 0]
    elif mode == "probe":
        lam, vec = _lanczos_min(CurvatureCache(w, data).hessian_matvec, w.shape.n_params, tol)
        if not return_vector:
            return lam
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return lam, Direction(unflatten(vec, w.shape.dims), w.shape)


# ---------------------------------------------------------------------------
# Negative-curvature witnesses.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WitnessCase:
    direction: Direction
    case: str
    c2_predicted: float
    pivot: tuple | None = None
    diagnostics: dict = field(default_factory=dict)


def witness_eigenswap(
    w: Weights,
    bundle: SigmaBundle,
    support,
    rank_tol: RankTolerance = RankTolerance(),
) -> WitnessCase:
    """Descent direction swapping an eigenvector out of the support.

    Applies whenever some unused eigenvalue exceeds a used one; the loss
    along the witness is exactly L(W) + (lambda_j - lambda_i) t^2
    + lambda_i t^4, so c2 = lambda_j - lambda_i < 0.
    """
    S = tuple(sorted(support))
    comp = sorted(set(range(1, bundle.d_y + 1)) - set(S))
    if not S or not comp or comp[0] > S[-1]:
        raise NotApplicable("no unused eigenvalue exceeds a used one")
    i, j = comp[0], S[-1]  # lambda_i > lambda_j, maximal gap
    g = S.index(j)  # 0-based position of j within S
    r = len(S)

    D, D_inv, _K = clem_d_matrix(w, bundle, S, rank_tol)
    V = np.outer(bundle.U[:, i - 1], np.eye(r)[g])  # d_y x r
    C = bundle.sigma_yx_sigma_xx_inv()
    shape = w.shape
    mats = _zero_direction(shape)
    mats[0] = D_inv @ np.vstack([V.T @ C, np.zeros((shape.dims[1] - r, shape.d_x))])
    mats[-1] = V @ (bundle.u_cols(S).T @ w.layer(shape.H))
    c2_pred = float(bundle.lambdas[j - 1] - bundle.lambdas[i - 1])
    return WitnessCase(
        direction=Direction(mats, shape),
        case="eigenswap",
        c2_predicted=c2_pred,
        diagnostics={
            "swap_in": i,
            "swap_out": j,
            "quartic_coeff": float(bundle.lambdas[i - 1]),
            "cond_D": float(np.linalg.cond(D)),
        },
    )


def _choose_beta(a: float, c: float) -> tuple[float, float]:
    """Minimize a b^2 + c b over b; returns (beta, minimum value)."""
    if abs(a) < BETA_ZERO_TOL:
        return -c, -c * c
    beta = -c / (2.0 * a)
    return beta, -c * c / (4.0 * a)


def _kernel_basis(M: np.ndarray, rank_tol: RankTolerance) -> np.ndarray:
    if M.size == 0:
        return np.eye(M.shape[1])
    u, s, vt = np.linalg.svd(M)
    thr = rank_tol.threshold(M.shape, float(s[0]) if s.size else 0.0)
    rk = int(np.count_nonzero(s > thr))
    return vt[rk:, :].T


def _zero_direction(shape):
    return [np.zeros(shape.layer_shape(h)) for h in range(1, shape.H + 1)]


def witness_untightened(
    w: Weights,
    bundle: SigmaBundle,
    data: DataMatrices,
    support,
    pivot: tuple,
    rank_tol: RankTolerance = RankTolerance(),
) -> WitnessCase:
    """Descent direction exploiting an untightened pivot (i, j).

    At a critical point with support S the residual R = W_H..W_1 X - Y
    satisfies R X^T = -U_Q U_Q^T Sigma_YX, U_Q the unused eigenvectors.
    Perturb layer j by b a^T, with b in the kernel of W_H..W_{j+1}, and
    layer i by beta e c^T, with c^T W_{i-1}..W_{j+1} b = 1.  The layer-j
    term of A_1 vanishes and A_2 = beta W_H..W_{i+1} e a^T W_{j-1}..W_1 X, so

        c2 = a_coef beta^2 - 2 beta a^T T e,
        T = W_{j-1}..W_1 Sigma_XY U_Q U_Q^T W_H..W_{i+1},
        a_coef = ||W_H..W_{i+1} e c^T W_{i-1}..W_1 X||^2 >= 0.

    (a, e) is the top singular pair of T, so a^T T e = sigma_1(T) > 0.  With
    N an orthonormal kernel basis of W_H..W_{j+1}, b = N v for the top right
    singular vector v of W_{i-1}..W_{j+1} N, and c is the image of b over its
    squared norm.  At i = j + 1 the inner product is the identity and every
    kernel direction is stretched equally, so v is instead the bottom
    eigenvector of N^T (P_j Sigma_XX P_j^T) N, P_j = W_j..W_1, and c = b:
    that b minimizes a_coef.  beta minimizes c2, which is then negative.
    When the top singular values (the bottom eigenvalue at i = j + 1) are
    simple the witness does not depend on the kernel basis, and c2 never
    does at i = j + 1.  When rank(W_H..W_{j+1}) exceeds r the pivot reduces
    to (j, 1).
    """
    i, j = pivot
    H = w.shape.H
    if not (1 <= j < i <= H):
        raise InvalidPivot(f"pivot must satisfy 1 <= j < i <= H, got {pivot}")
    S = tuple(sorted(support))
    U_Q = bundle.u_complement(S)
    if not U_Q.size:
        raise NotApplicable("support already uses every output eigendirection")
    suf = partial_suffix(w, j + 1)
    if j > 1 and numeric_rank(suf, rank_tol) > len(S):
        return witness_untightened(w, bundle, data, S, (j, 1), rank_tol)

    pre, suf_i = partial_prefix(w, j - 1), partial_suffix(w, i + 1)
    T = pre @ bundle.sigma_xy @ U_Q @ (U_Q.T @ suf_i)
    u, s, vt = np.linalg.svd(T)
    # sigma_1(T) is compared with the product of its factors' norms, so that
    # the test does not depend on the units of X and Y.
    factors = [np.linalg.norm(M, 2) for M in (pre, bundle.sigma_xy, suf_i)]
    if s[0] <= BETA_ZERO_TOL * factors[0] * factors[1] * factors[2]:
        raise NotApplicable("pivot data block vanishes outside the support")
    N = _kernel_basis(suf, rank_tol)
    if not N.size:
        raise NotApplicable("upper layers past the pivot have trivial kernel")
    if i == j + 1:
        B = partial_prefix(w, j).T @ N
        b = c = N @ np.linalg.eigh(B.T @ bundle.sigma_xx @ B)[1][:, 0]
    else:
        u_img, s_img, vt_img = np.linalg.svd(partial_middle(w, i, j) @ N, full_matrices=False)
        if s_img[0] <= BETA_ZERO_TOL:
            raise NotApplicable("kernel past the pivot is annihilated by the inner layers")
        b, c = N @ vt_img[0], u_img[:, 0] / s_img[0]

    top_dir = np.outer(vt[0], c)  # e c^T
    A = suf_i @ top_dir @ partial_prefix(w, i - 1) @ data.X
    a_coef, c_coef = float(np.sum(A * A)), -2.0 * float(s[0])
    beta, c2_pred = _choose_beta(a_coef, c_coef)
    mats = _zero_direction(w.shape)
    mats[j - 1] = np.outer(b, u[:, 0])
    mats[i - 1] = beta * top_dir
    return WitnessCase(
        direction=Direction(mats, w.shape),
        case=f"untightened_{'last' if i == H else 'interior'}_"
             f"{'first' if j == 1 else 'interior'}",
        c2_predicted=c2_pred,
        pivot=(i, j),
        diagnostics={"beta": beta, "quad_coeff": a_coef, "lin_coeff": c_coef},
    )


# ---------------------------------------------------------------------------
# Nonnegative decomposition of c2 at tightened points in canonical form.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TightenedStructure:
    p: int  # largest h in [3, H] with rank(W_H .. W_h) = r
    q: int  # smallest q in [1, min(p-1, H-2)] with rank(W_q..W_1 Sigma_XY) = r
    residual: float


@dataclass(frozen=True)
class FtStDecomposition:
    a1: float
    A2: np.ndarray  # r x d_x, M L with Sigma_XX = L L^T
    A3: np.ndarray  # (d_y - r) x r
    A4: np.ndarray  # (d_y - r) x r
    structure: TightenedStructure

    @property
    def c2(self) -> float:
        return (
            self.a1
            + float(np.sum(self.A2 * self.A2))
            + float(np.sum((self.A3 - self.A4) ** 2))
        )


def _tightened(w: Weights, bundle: SigmaBundle):
    """Locate the rank-collapse indices (p, q) of a tightened canonical point
    and verify the product identities they imply.  Returns the
    ``TightenedStructure`` together with r and the blocks Z_1..Z_H, as the
    weights of the network with widths (d_x, d_1 - r, ..., d_y - r) so that
    their products come from its product table.  Rank cuts use the
    product-rounding floor of ``classify``."""
    from .classifier import is_tightened  # classifier imports this module

    shape = w.shape
    H = shape.H
    if H < 3:
        raise InvalidShape("tightened structure requires depth H >= 3")
    rank_tol = product_rank_tolerance(w)
    r = numeric_rank(partial_suffix(w, 1), rank_tol)
    if r >= shape.r_max:
        raise NotApplicable("tightened analysis targets rank-deficient points")
    z, _ = _canonical_blocks(
        w, bundle, tuple(range(1, r + 1)), w.frob_norm(), NeedsCanonicalization
    )
    z = Weights(z, NetworkShape((shape.d_x,) + tuple(d - r for d in shape.dims[1:])))

    # All pivots must be tightened: the smaller of the two block ranks is r.
    for pv in is_tightened(w, bundle, r, rank_tol)[1]:
        if min(pv.rank1, pv.rank2) > r:
            raise NotTightened(f"pivot ({pv.i}, {pv.j}) is not tightened")

    p = None
    for h in range(H, 2, -1):
        if numeric_rank(partial_suffix(w, h), rank_tol) == r:
            p = h
            break
    if p is None:
        raise InternalInconsistency("no rank-collapse index p found above layer 2")
    q = None
    for qq in range(1, min(p - 1, H - 2) + 1):
        if numeric_rank(partial_prefix(w, qq) @ bundle.sigma_xy, rank_tol) == r:
            q = qq
            break
    if q is None:
        raise InternalInconsistency("no rank-collapse index q found below layer H-1")

    # Product identities implied by (p, q).
    U_S = bundle.U[:, :r]
    scale = 1.0 + w.frob_norm() + np.linalg.norm(bundle.sigma_xy)
    errs = [0.0]
    for i in range(1, p):
        suf = partial_suffix(w, i + 1)
        errs.append(
            np.linalg.norm(
                suf - np.hstack([U_S, np.zeros((shape.d_y, suf.shape[1] - r))])
            )
        )
    # W_{i-1}..W_2 for i >= p and W_{H-1}..W_{i+1} for i <= q are [[I_r, 0], [0, 0]].
    mids = [partial_middle(w, i, 1) for i in range(p, H + 1)]
    mids += [partial_middle(w, H, i) for i in range(1, q + 1)]
    for mid in mids:
        tgt = np.zeros_like(mid)
        tgt[:r, :r] = np.eye(r)
        errs.append(np.linalg.norm(mid - tgt))
    U_Q = bundle.U[:, r:]
    for i in range(q + 1, H + 1):
        # Z_{i-1} .. Z_1 Sigma_XY U_Q = 0
        errs.append(np.linalg.norm(partial_prefix(z, i - 1) @ bundle.sigma_xy @ U_Q))
    residual = max(errs)
    if residual > EPS_CANON * scale:
        raise InternalInconsistency(
            f"tightened product identities violated by {residual:.3g}"
        )
    return TightenedStructure(p=p, q=q, residual=float(residual)), r, z


def ft_st_decomposition(
    w: Weights,
    v: Direction,
    bundle: SigmaBundle,
    data: DataMatrices,
) -> FtStDecomposition:
    """Write c2 at a tightened canonical point as a sum of squares:
    c2 = a1 + ||A2||^2 + ||A3 - A4||^2 >= 0.

    Requires weights in canonical block form with support [1, r], r < r_max,
    tightened, depth >= 3.  The decomposition certifies the absence of
    second-order descent directions.

    Only second moments enter.  With V_Q the right singular vectors of
    Sigma_YX Sigma_XX^{-1} X for lambda_{r+1..d_y}, X V_Q is
    Sigma_XY U_Q Lambda_Q^{-1/2}, and X times the projector onto the other
    sample directions is Pi X with the d_x x d_x
    Pi = I - X V_Q Lambda_Q^{-1/2} U_Q^T Sigma_YX Sigma_XX^{-1}.  The fitting
    aggregate is thus M X for an r x d_x matrix M, and A2 = M L (r x d_x,
    Sigma_XX = L L^T) has the same squared norm.  ``data`` is not read.
    """
    H = w.shape.H
    st, r, z = _tightened(w, bundle)
    p, q = st.p, st.q

    J1 = range(p, H)
    J2 = range(q + 1, p)
    J3 = range(2, q + 1)

    lam = bundle.lambdas
    U_S, U_Q = bundle.U[:, :r], bundle.U[:, r:]
    C = bundle.sigma_yx_sigma_xx_inv()
    P_S = U_S.T @ C  # r x d_x
    delta_q = np.sqrt(lam[r:])
    XV_Q = bundle.sigma_xy @ U_Q / delta_q  # d_x x (d_y - r)
    Pi = np.eye(bundle.d_x) - (XV_Q / delta_q) @ U_Q.T @ C

    # a1: swap-type quadratic with eigenvalue gaps as weights; the Z products
    # Z_H..Z_{i+1} and Z_{i-1}..Z_1 are suffixes and prefixes of z.
    T1 = U_Q.T @ v.layer(H)[:, :r]
    for i in J1:
        T1 = T1 + partial_suffix(z, i + 1) @ v.layer(i)[r:, :r]
    gaps = lam[:r][None, :] - lam[r:][:, None]  # (d_y - r) x r, all > 0
    a1 = float(np.sum(gaps * T1 * T1))

    # A2: the fitting-direction aggregate M, then M L.
    M = U_S.T @ v.layer(H)[:, :r] @ P_S
    for i in J1:
        M = M + v.layer(i)[:r, :r] @ P_S
    for i in J2:
        M = M + v.layer(i)[:r, :r] @ P_S + v.layer(i)[:r, r:] @ partial_prefix(z, i - 1)
    for i in J3:
        Kz = partial_prefix(z, i - 1)
        M = M + v.layer(i)[:r, :r] @ P_S + v.layer(i)[:r, r:] @ (Kz @ Pi)
    A2 = (M + v.layer(1)[:r, :] @ Pi) @ bundle.L

    A3 = delta_q[:, None] * T1
    A4 = v.layer(1)[:r, :] @ XV_Q
    for i in J3:
        A4 = A4 + v.layer(i)[:r, r:] @ (partial_prefix(z, i - 1) @ XV_Q)
    A4 = A4.T

    return FtStDecomposition(a1=a1, A2=A2, A3=A3, A4=A4, structure=st)

"""Second-order analysis along lines W + t V.

The square loss restricted to a line is a polynomial of degree 2H in t; its
quadratic coefficient c2 decides strictness of saddles.  This module provides
an O(H) evaluator and Hessian for c2, the exact expansion in its terms,
negative-curvature witnesses for the two saddle mechanisms, and the
nonnegative decomposition of c2 at tightened points.  The eigenvector-swap
witness moves mass from a used to a larger unused eigenvalue.  The
untightened-pivot witness is one construction for every pivot (i, j): a
rank-one perturbation of layer j from the kernel of the layers above it,
fed by a rank-one perturbation of layer i, both taken from singular vectors
(or, when the two layers are adjacent, from the kernel direction with the
least quadratic coefficient) rather than from coordinates or from a
particular kernel basis.  Everything here reads the samples only through
their second moments Sigma_XX and Sigma_YX (and tr Sigma_YY for the
expansion's constant term): no array has an axis of length m.  The
Hessian-vector product of the Lanczos probe is bound by numpy call overhead,
so it makes one matrix product per layer step on buffers laid out once.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field
from functools import cached_property
from itertools import groupby

import numpy as np

from .critical_points import _canonical_blocks, _ZChains
from .data_model import DataMatrices, SigmaBundle, _moments
from .errors import (
    InternalInconsistency,
    InvalidPivot,
    InvalidShape,
    NeedsCanonicalization,
    NotApplicable,
    NotTightened,
    ProbeNotConverged,
    TooLarge,
)
from .network import (Direction, Weights, _product_table, global_map, partial_middle,
                      partial_prefix, partial_suffix, products_loss, residual_moment, unflatten)
from .ranktol import (BETA_ZERO_TOL, EPS_WITNESS, RankTolerance, floored, numeric_rank, rank_cut,
                      singular_values)

MAX_DENSE_PARAMS = 2000
# Lanczos steps, one Hessian-vector product each, before the probe raises
# ProbeNotConverged; the deep_probe points of seeds 101-110 (depth 8-24,
# width 20) stop after 21 to 33.
PROBE_MAXITER = 300
# Lanczos steps between solves of the tridiagonal; overshooting convergence by
# up to _RITZ_STRIDE - 1 steps only shrinks the Ritz residual.
_RITZ_STRIDE = 3
PROBE_SEED = 0  # of the probe's start vector, so that probes repeat exactly
_BASIS_BYTES = (1 << 22) - 1  # the Lanczos basis's first allocation


# ---------------------------------------------------------------------------
# Exact polynomial expansion of the loss along a line.
# ---------------------------------------------------------------------------

def _line_orders(w: Weights, v: Direction, order: int) -> list:
    """A_0 .. A_order: the terms of (W_H + t V_H) ... (W_1 + t V_1) grouped
    by their power of t, where A_k sums every way of substituting k layers by
    their perturbations.  One pass over the layers updates all orders
    (A_k <- W_h A_k + V_h A_{k-1}), starting from A_0 = W_1 and A_1 = V_1;
    orders above `order` (at least 1) are dropped.  A_0 after layer h is the
    prefix W_h..W_1 of the weights' product table.  Each A_k is d_y x d_x."""
    A = [w.layers[0], v.layers[0]]
    for Wh, Vh, prefix in zip(w.layers[1:], v.layers[1:], _product_table(w)[0][2:]):
        new = [prefix]
        for k in range(1, len(A)):
            new.append(Wh @ A[k] + Vh @ A[k - 1])
        if len(A) <= order:
            new.append(Vh @ A[-1])
        A = new
    return A


def taylor_coeffs(w: Weights, v: Direction, bundle: SigmaBundle) -> np.ndarray:
    """Exact coefficients c_0 .. c_{2H} of the degree-2H polynomial
    t -> L(W + t V), at any depth, lowest degree first (the order of
    ``np.polynomial.polynomial.polyval``).  With A_k the line orders and E
    of the ``CurvatureCache``, c_0 is the loss ``products_loss(A_0, E)`` and,
    for n >= 1, c_n = sum_{k + l = n; k, l >= 1} <A_k Sigma_XX, A_l> +
    2 <A_n, E>, the form of ``CurvatureCache.c2_threshold``: c_0 and c_2 are
    ``loss`` and ``c2_value`` bit for bit."""
    if v.shape.dims != w.shape.dims:
        raise InvalidShape("direction shape does not match weights")
    cache, H = CurvatureCache(w, bundle), w.shape.H
    A = _line_orders(w, v, H)
    coeffs = np.zeros(2 * H + 1)
    coeffs[0] = products_loss(A[0], cache.E, bundle)
    for k in range(1, H + 1):
        AS = A[k] @ cache.sigma_xx
        for l in range(1, H + 1):
            coeffs[k + l] += float(np.sum(AS * A[l]))
        coeffs[k] += 2.0 * float(np.sum(A[k] * cache.E))
    return coeffs


# ---------------------------------------------------------------------------
# Quadratic form and Hessian at a fixed point, in O(H) products each.
# ---------------------------------------------------------------------------

class CurvatureCache:
    """Forward and backward passes at a fixed W for repeated c2 evaluation
    and Hessian-vector products, in the second moments of the data.

    Takes Sigma_XX and Sigma_YX from a ``SigmaBundle``, or from one moment
    pass of ``data_model`` over the samples of ``DataMatrices``, and keeps
    E = W_H..W_1 Sigma_XX - Sigma_YX (which is R X^T for the residual
    R = W_H..W_1 X - Y) and, built on the first Hessian-vector product, the
    prefixes P_h = W_h..W_1 of the weights' product table (P_0 = I) and the
    backward adjoints B_h = (W_H..W_{h+1})^T E (B_H = E): O(H) arrays of
    d_x columns, none of m.  c2(V) = <A_1 Sigma_XX, A_1> + 2 <A_2, E> from
    the order-2 truncation of the line expansion needs only E and the
    prefixes of the weights' product table, about 4H matrix products; c2
    and its certification threshold come from one body, ``c2_threshold``.  The
    Hessian acts on V by Pearlmutter's R-operator on the two passes.  Its
    first call lays P, B and the layers out in concatenated buffers
    (``_fused``, O(H d d_x) floats), so that each two-term step of a pass
    is one matrix product and the gradient blocks of a run of equal-shaped
    layers one stacked product: 2H + 3R + 2 numpy calls for the R runs of
    layers 2..H, against about 6H products and 3H additions with one
    product per term.  The buffers make a cache unsafe to share between
    threads.
    """

    def __init__(self, w: Weights, data: DataMatrices | SigmaBundle):
        if w.shape.d_x != data.d_x or w.shape.d_y != data.d_y:
            raise InvalidShape("weights incompatible with data")
        self.w = w
        self.H = w.shape.H
        self.sigma_xx, sigma_xy = (
            (data.sigma_xx, data.sigma_xy) if isinstance(data, SigmaBundle) else _moments(data)[:2])
        self.sigma_yx = sigma_xy.T
        self.E = residual_moment(global_map(w), self)  # reads sigma_xx, sigma_yx

    @cached_property
    def P(self) -> list:
        return [partial_prefix(self.w, h) for h in range(self.H + 1)]

    @cached_property
    def B(self) -> list:
        return [partial_suffix(self.w, h + 1).T @ self.E for h in range(self.H)] + [self.E]

    def c2(self, v: Direction) -> float:
        return self.c2_threshold(v)[0]

    def c2_threshold(self, v: Direction) -> tuple[float, float]:
        """c2(V) and the threshold below which it is certifiably negative:
        -EPS_WITNESS times ||A_1 X||^2 + 2 <|A_2|, |E|>, the size of the
        summands of c2 = ||A_1 X||^2 + 2 <A_2, E>.  That bounds their
        rounding in the units of c2 whatever the scale of X and Y, which
        |<A_2, E>| does not: where A_2 is orthogonal to E, as along the flat
        directions of a non-strict saddle, it is itself a rounding."""
        _, A1, A2 = _line_orders(self.w, v, 2)
        quad, cross = float(np.sum((A1 @ self.sigma_xx) * A1)), A2 * self.E
        size = quad + 2.0 * float(np.sum(np.abs(cross)))
        return quad + 2.0 * float(np.sum(cross)), -EPS_WITNESS * size

    @cached_property
    def _fused(self):
        """Buffers of ``hessian_matvec``, filled from P, B and the layers on
        its first call, and the views its products read and write.

        A (d, 2, n) buffer of slots X_0, X_1 reads as [X_0 | X_1] (d x 2n) or
        as their rows interleaved (2d x n).  Layer h >= 2 has
        S_h = (dP_{h-1}, P_{h-1}), T_h = (B_h, dB_h), G_h = (2 V_h, W_h),
        and F_h with W_h and 2 V_h interleaved entry by entry, so that
          forward   F_h S_h   = W_h dP_{h-1} + 2 V_h P_{h-1},
          backward  G_h^T T_h = 2 V_h^T B_h + W_h^T dB_h,
          block     T_h S_h^T = B_h dP_{h-1}^T + dB_h P_{h-1}^T,
        with S_h, T_h read as 2d x d_x in the passes and d x 2 d_x in the
        blocks.  No one layout of (W_h, 2 V_h) serves both passes, hence F
        and G.  Each step writes into the slot that the next one reads.  A
        run of consecutive equal-shaped layers keeps S, T, F and G stacked,
        and its parameters are one (k, d_h, d_{h-1}) slice of the flat
        layout, so its copies of 2 V and its blocks take one call each.

        Returns the buffer of 2 V, the (destination, source) copies from it,
        the (a, b, out) steps in order, and the (a, b, lo, hi, shape)
        products written to the output's slice lo:hi: the last backward
        step, whose dB_1 is the first block, and each run's blocks."""
        dims, d_x, H = self.w.shape.dims, self.w.shape.d_x, self.H
        W, P, B = self.w.layers, self.P, self.B
        v2 = np.empty(self.w.shape.n_params)
        S, T, F, G, copies, blocks = {}, {}, {}, {}, [], []
        off = dims[1] * d_x
        for (rows, cols), run in groupby(range(2, H + 1), lambda h: (dims[h], dims[h - 1])):
            run = list(run)
            k, size = len(run), len(run) * rows * cols
            s, t = np.empty((k, cols, 2, d_x)), np.empty((k, rows, 2, d_x))
            f, g = np.empty((k, rows, cols, 2)), np.empty((k, rows, 2, cols))
            v = v2[off:off + size].reshape(k, rows, cols)
            copies += [(f[..., 1], v), (g[:, :, 0], v)]
            blocks.append((t.reshape(k, rows, 2 * d_x), s.reshape(k, cols, 2 * d_x).swapaxes(1, 2),
                           off, off + size, (k, rows, cols)))
            off += size
            for i, h in enumerate(run):
                s[i, :, 1], t[i, :, 0] = P[h - 1], B[h]
                f[i, ..., 0] = g[i, :, 1] = W[h - 1]
                S[h], T[h] = s[i], t[i]
                F[h], G[h] = f[i].reshape(rows, 2 * cols), g[i].reshape(2 * rows, cols).T
        copies.append((S[2][:, 0], v2[:dims[1] * d_x].reshape(dims[1], d_x)))
        dP_H = np.empty((dims[H], d_x))
        steps = [(F[h], S[h].reshape(2 * dims[h - 1], d_x), S[h + 1][:, 0] if h < H else dP_H)
                 for h in range(2, H + 1)]
        steps.append((dP_H, self.sigma_xx, T[H][:, 1]))
        steps += [(G[h], T[h].reshape(2 * dims[h], d_x), T[h - 1][:, 1]) for h in range(H, 2, -1)]
        first = (G[2], T[2].reshape(2 * dims[2], d_x), 0, dims[1] * d_x, (dims[1], d_x))
        return v2, copies, steps, [first] + blocks

    def hessian_matvec(self, flat: np.ndarray) -> np.ndarray:
        """Action of the Hessian of t -> L(W + tV) at t=0 (i.e. of 2 c2) on
        the flat parameter vector of V.

        With dP_h and dB_h the derivatives of P_h and B_h along V
        (dP_1 = V_1, dP_h = W_h dP_{h-1} + V_h P_{h-1}; dB_H = dP_H Sigma_XX,
        dB_{h-1} = W_h^T dB_h + V_h^T B_h), the gradient 2 B_h P_{h-1}^T has
        derivative 2 (dB_h P_{h-1}^T + B_h dP_{h-1}^T), which is 2 dB_1 at
        h = 1 (P_0 = I, dP_0 = 0).  Both are linear in V, so passes on 2 V
        give the factor 2 exactly.  Each step of either pass is one product
        of the buffers of ``_fused``, and the blocks of h >= 2 are one
        stacked product per run of equal-shaped layers, each written into
        its slice of one flat output.  Raises InvalidShape unless flat is
        one vector of n_params entries."""
        v2, copies, steps, blocks = self._fused
        if np.shape(flat) != v2.shape:
            raise InvalidShape(f"expected {v2.size} parameters, got shape {np.shape(flat)}")
        np.multiply(flat, 2.0, out=v2)
        for dst, src in copies:
            np.copyto(dst, src)
        for a, b, c in steps:
            np.matmul(a, b, out=c)
        out = np.empty(v2.size)
        for a, b, lo, hi, shape in blocks:
            np.matmul(a, b, out=out[lo:hi].reshape(shape))
        return out


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

    Lanczos from a seeded start vector, with full reorthogonalization and no
    restarts, so that a zero eigenvalue is not skipped as it is by restarted
    solvers that lock onto the smallest nonzero one.  Each step makes one
    projection c = Q_k v of the new vector on the whole basis: its last
    entry is the diagonal entry alpha_k, and v - Q_k^T c is the three-term
    step and classical Gram-Schmidt at once.  A second pass runs only when
    the first cancels, shrinking the vector below 1/sqrt 2 of its length
    after the three-term step, sqrt(|v|^2 - c_k^2 - c_{k-1}^2) (Daniel,
    Gragg, Kaufman and Stewart 1976); its c_k is added to alpha_k.  The
    basis starts with the rows that fit in _BASIS_BYTES, under the 4 MiB from
    which numpy asks for transparent huge pages (2 MiB committed at a time),
    and doubles in one contiguous array when a probe needs more.  The
    tridiagonal is solved every _RITZ_STRIDE steps, at the cap, and whenever
    beta_k is at most 1e-12 times its Gershgorin bound.  Stops when the Ritz
    residual |beta_k s_k| of the smallest Ritz value is at most tol * max|theta|,
    or when beta_k <= 1e-12 * max|theta| (the Krylov space is invariant);
    after PROBE_MAXITER steps raises ProbeNotConverged.
    """
    kmax = min(PROBE_MAXITER, n)
    q = np.random.default_rng(PROBE_SEED).standard_normal(n)
    Q = np.empty((min(kmax + 1, max(2, _BASIS_BYTES // (8 * n))), n))
    T = np.zeros((kmax + 1, kmax + 1))
    Q[0] = q / np.linalg.norm(q)
    bound = b = 0.0  # Gershgorin bound on max|theta|, last off-diagonal entry
    for k in range(1, kmax + 1):
        v = matvec(Q[k - 1])
        c = Q[:k] @ v
        cancel = 0.5 * (float(v @ v) - float(c[-2:] @ c[-2:]))  # DGKS, squared
        v -= c @ Q[:k]
        alpha, bb = float(c[-1]), float(v @ v)
        if bb < cancel:
            c = Q[:k] @ v
            v -= c @ Q[:k]
            alpha, bb = alpha + float(c[-1]), float(v @ v)
        b_prev, b = b, bb ** 0.5
        bound = max(bound, abs(alpha) + b_prev + b)
        T[k - 1, k - 1] = alpha
        if k % _RITZ_STRIDE == 0 or k == kmax or b <= 1e-12 * bound:
            theta, s = np.linalg.eigh(T[:k, :k])
            scale = float(np.abs(theta).max())
            if abs(b * s[-1, 0]) <= tol * scale or b <= 1e-12 * scale:
                return float(theta[0]), s[:, 0] @ Q[:k]
        if k == len(Q):
            Q = np.concatenate([Q, np.empty((min(k, kmax + 1 - k), n))])
        np.divide(v, b, out=Q[k])
        T[k - 1, k] = T[k, k - 1] = b
    raise ProbeNotConverged(f"Lanczos probe did not converge in {k} steps")


def hessian_min_eig(
    w: Weights, data: DataMatrices, mode: str = "dense", tol: float = 1e-6,
    return_vector: bool = False,
):
    """Smallest eigenvalue of the Hessian at W: one dense eigh for small
    nets, whether or not the vector is asked for, so that the value does not
    depend on return_vector; matrix-free Lanczos probe otherwise.  With
    return_vector the matching eigenvector is reshaped to a Direction and
    returned alongside.

    The probe (``_lanczos_min``) starts from a seeded vector, so it repeats
    exactly, and finds a zero lambda_min at non-strict saddles.  Each
    Lanczos step makes one Hessian-vector product and one projection on the
    whole basis.  Every _RITZ_STRIDE steps and at the cap it checks its
    stopping rule: a Ritz residual at most tol times the largest Ritz
    value's magnitude, or an invariant Krylov space (which it also checks
    at every step).  A probe short of that after PROBE_MAXITER steps raises
    ProbeNotConverged.  In either mode a negative or non-finite tol is
    refused with ValueError: inf would accept the first Ritz value, and NaN
    or a negative tol could never stop the probe."""
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"probe tolerance must be finite and nonnegative, got {tol}")
    if mode == "dense":
        vals, vecs = np.linalg.eigh(hessian_dense(w, data))
        lam, vec = float(vals[0]), vecs[:, 0]
    elif mode == "probe":
        lam, vec = _lanczos_min(CurvatureCache(w, data).hessian_matvec, w.shape.n_params, tol)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return (lam, Direction(unflatten(vec, w.shape.dims), w.shape)) if return_vector else lam


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


def witness_eigenswap(w: Weights, bundle: SigmaBundle, support) -> WitnessCase:
    """Descent direction swapping an eigenvector out of the support.

    Applies whenever some unused eigenvalue exceeds a used one.  W_1 is
    perturbed by F_1 V^T C, F_1 = (U_S^T W_H..W_2)^+, and W_H by V U_S^T W_H;
    the loss sees the first only through W_H..W_2 F_1 V^T C = U_S V^T C, so
    along the witness it is exactly L(W) + (lambda_j - lambda_i) t^2
    + lambda_i t^4, and c2 = lambda_j - lambda_i < 0.
    """
    S = tuple(sorted(support))
    comp = sorted(set(range(1, bundle.d_y + 1)) - set(S))
    if not S or not comp or comp[0] > S[-1]:
        raise NotApplicable("no unused eigenvalue exceeds a used one")
    i, j = comp[0], S[-1]  # lambda_i > lambda_j, maximal gap
    g = S.index(j)  # 0-based position of j within S
    r = len(S)

    U_S = bundle.u_cols(S)
    V = np.outer(bundle.U[:, i - 1], np.eye(r)[g])  # d_y x r
    shape = w.shape
    mats = _zero_direction(shape)
    F_1 = np.linalg.pinv(U_S.T @ partial_suffix(w, 2))
    mats[0] = F_1 @ (V.T @ bundle.sigma_yx_sigma_xx_inv)
    mats[-1] = V @ (U_S.T @ w.layer(shape.H))
    c2_pred = float(bundle.lambdas[j - 1] - bundle.lambdas[i - 1])
    return WitnessCase(
        direction=Direction(mats, shape),
        case="eigenswap",
        c2_predicted=c2_pred,
        diagnostics={
            "swap_in": i,
            "swap_out": j,
            "quartic_coeff": float(bundle.lambdas[i - 1]),
        },
    )


def _choose_beta(a: float, c: float) -> tuple[float, float]:
    """Minimize a b^2 + c b over b; returns (beta, minimum value)."""
    if abs(a) < BETA_ZERO_TOL:
        return -c, -c * c
    beta = -c / (2.0 * a)
    return beta, -c * c / (4.0 * a)


def _kernel_basis(M: np.ndarray, rank_tol: RankTolerance) -> np.ndarray:
    _, s, vt = np.linalg.svd(M)
    return vt[rank_cut(s, M.shape, rank_tol):, :].T


def _zero_direction(shape):
    return [np.zeros(shape.layer_shape(h)) for h in range(1, shape.H + 1)]


def witness_untightened(
    w: Weights,
    bundle: SigmaBundle,
    support,
    pivot: tuple,
    rank_tol: RankTolerance = RankTolerance(),
) -> WitnessCase:
    """Descent direction exploiting an untightened pivot (i, j).

    At a critical point with support S, E = W_H..W_1 Sigma_XX - Sigma_YX
    (R X^T for the residual R = W_H..W_1 X - Y) is -U_Q U_Q^T Sigma_YX, U_Q
    the unused eigenvectors.  Perturb layer j by b a^T, with b in the kernel
    of W_H..W_{j+1}, and layer i by beta e c^T, with
    c^T W_{i-1}..W_{j+1} b = 1.  The layer-j term of A_1 vanishes and
    A_2 = beta W_H..W_{i+1} e a^T W_{j-1}..W_1, so that
    c2 = <A_1 Sigma_XX, A_1> + 2 <A_2, E> is

        c2 = a_coef beta^2 - 2 beta a^T T e,
        T = W_{j-1}..W_1 Sigma_XY U_Q U_Q^T W_H..W_{i+1},
        a_coef = ||W_H..W_{i+1} e c^T W_{i-1}..W_1 L||^2 >= 0,

    with Sigma_XX = L L^T the bundle's Cholesky factor.
    (a, e) is the top singular pair of T, so a^T T e = sigma_1(T) > 0.  With
    N an orthonormal kernel basis of W_H..W_{j+1} (cut at the ``chain_floor``
    of layers j+1..H), b = N v for the top right singular vector v of
    W_{i-1}..W_{j+1} N, and c is the image of b over its squared norm.  At
    i = j + 1 the inner product is the identity and every kernel direction
    is stretched equally, so v is instead the bottom
    eigenvector of N^T (P_j Sigma_XX P_j^T) N, P_j = W_j..W_1, and c = b:
    that b minimizes a_coef.  beta minimizes c2, which is then negative.
    When the top singular values (the bottom eigenvalue at i = j + 1) are
    simple the witness does not depend on the kernel basis, and c2 never
    does at i = j + 1.
    """
    i, j = pivot
    H = w.shape.H
    if not (1 <= j < i <= H):
        raise InvalidPivot(f"pivot must satisfy 1 <= j < i <= H, got {pivot}")
    S = tuple(sorted(support))
    U_Q = bundle.u_complement(S)
    if not U_Q.size:
        raise NotApplicable("support already uses every output eigendirection")
    N = _kernel_basis(partial_suffix(w, j + 1), floored(rank_tol, H, w.layer_norms()[j:]))

    pre, suf_i = partial_prefix(w, j - 1), partial_suffix(w, i + 1)
    T = pre @ bundle.sigma_xy @ U_Q @ (U_Q.T @ suf_i)
    u, s, vt = np.linalg.svd(T)
    # Each sigma_1 below is compared with the product of its factors' norms,
    # so that no test depends on the units of X and Y or of one layer; those
    # of pre and suf_i come from one batched SVD.
    factors = singular_values((pre, suf_i))[:, 0]
    if s[0] <= BETA_ZERO_TOL * factors[0] * bundle.sigma_xy_norm * factors[1]:
        raise NotApplicable("pivot data block vanishes outside the support")
    if not N.size:
        raise NotApplicable("upper layers past the pivot have trivial kernel")
    if i == j + 1:
        B = partial_prefix(w, j).T @ N
        b = c = N @ np.linalg.eigh(B.T @ bundle.sigma_xx @ B)[1][:, 0]
    else:
        u_img, s_img, vt_img = np.linalg.svd(partial_middle(w, i, j) @ N, full_matrices=False)
        if s_img[0] <= BETA_ZERO_TOL * np.prod(w.layer_norms()[j:i - 1]):
            raise NotApplicable("kernel past the pivot is annihilated by the inner layers")
        b, c = N @ vt_img[0], u_img[:, 0] / s_img[0]

    top_dir = np.outer(vt[0], c)  # e c^T
    A = suf_i @ top_dir @ partial_prefix(w, i - 1) @ bundle.L
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
    p: int  # largest h in [3, H] with Z_H..Z_h = 0
    q: int  # smallest k in [1, min(p-1, H-2)] with Z_k..Z_1 G = 0, G = Sigma_XY U_Q


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
    """The ``TightenedStructure`` of a tightened canonical point, r and the
    ``_ZChains`` of its blocks.  r is the rank of the global map cut at the
    ``chain_floor`` of all layers; the rest are zero tests on Z chains, since
    at canonical weights rank(W_H..W_h) = r exactly when Z_H..Z_h = 0, and
    rank(W_k..W_1 Sigma_XY) = r exactly when Z_k..Z_1 G = 0.

    The product identities that ``ft_st_decomposition`` uses follow from
    tightness and the definitions of p and q, so no chain is tested twice:
    - i < p: Z_H..Z_{i+1} contains Z_H..Z_p = 0;
    - i >= p: Z_H..Z_{i+1} is nonzero by the maximality of p and G has full
      column rank (the standing assumption), so the outer chain
      G Z_H..Z_{i+1} of pivot (i, 1) is nonzero and its tightness zeroes
      Z_{i-1}..Z_2;
    - i <= q: Z_{i-1}..Z_1 G is nonzero by the minimality of q (G at i = 1),
      so the tightness of pivot (H, i) zeroes Z_{H-1}..Z_{i+1};
    - i > q: Z_{i-1}..Z_1 G contains Z_q..Z_1 G = 0.
    In floating point the second case could fail only where the zero tests
    of G M and of M disagree, which takes an ill-conditioned G."""
    shape, H = w.shape, w.shape.H
    if H < 3:
        raise InvalidShape("tightened structure requires depth H >= 3")
    r = numeric_rank(global_map(w), floored(RankTolerance(), H, w.layer_norms()))
    if r >= shape.r_max:
        raise NotApplicable("tightened analysis targets rank-deficient points")
    z = _ZChains(_canonical_blocks(w, bundle, tuple(range(1, r + 1)), w.frob_norm(),
                                   NeedsCanonicalization), bundle.sigma_xy @ bundle.U[:, r:])
    if (pivot := z.untightened_pivot()) is not None:
        raise NotTightened(f"pivot {pivot} is not tightened")

    n, g = z.norms, [z.g_norm]
    p = next((h for h in range(H, 2, -1) if z.zero(z.suf[h], n[h - 1:])), None)
    if p is None:
        raise InternalInconsistency("no rank-collapse index p found above layer 2")
    q = next((k for k in range(1, min(p - 1, H - 2) + 1) if z.zero(z.zg[k], n[:k] + g)), None)
    if q is None:
        raise InternalInconsistency("no rank-collapse index q found below layer H-1")
    return TightenedStructure(p=p, q=q), r, z


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

    The tightened structure (r, the rank-collapse indices p and q, and the
    Z chains) and the certificate's factors below (U_S, U_Q, P_S, delta_Q,
    X V_Q, Pi and the eigenvalue gaps) depend on the point and the bundle
    only, so the first call keeps them on ``w`` and later calls with the
    same bundle object reuse them for every direction, which then pays only
    for its own products; another bundle gets a fresh analysis.  The entry
    holds the bundle only through a weak reference.  A point that fails the
    analysis keeps nothing and raises again on every call.

    Only second moments enter.  With V_Q the right singular vectors of
    Sigma_YX Sigma_XX^{-1} X for lambda_{r+1..d_y}, X V_Q is
    Sigma_XY U_Q Lambda_Q^{-1/2}, and X times the projector onto the other
    sample directions is Pi X with the d_x x d_x
    Pi = I - X V_Q Lambda_Q^{-1/2} U_Q^T Sigma_YX Sigma_XX^{-1}.  The fitting
    aggregate is thus M X for an r x d_x matrix M, and A2 = M L (r x d_x,
    Sigma_XX = L L^T) has the same squared norm.  ``data`` is not read.
    """
    H = w.shape.H
    memo = w._tightened
    if memo is None or memo[0]() is not bundle:
        st, r, z = _tightened(w, bundle)
        lam = bundle.lambdas
        U_S, U_Q = bundle.U[:, :r], bundle.U[:, r:]
        C = bundle.sigma_yx_sigma_xx_inv
        delta_q = np.sqrt(lam[r:])
        XV_Q = bundle.sigma_xy @ U_Q / delta_q  # d_x x (d_y - r)
        Pi = np.eye(bundle.d_x) - (XV_Q / delta_q) @ U_Q.T @ C
        gaps = lam[:r][None, :] - lam[r:][:, None]  # (d_y - r) x r, all > 0
        memo = weakref.ref(bundle), (st, r, z, U_S, U_Q, U_S.T @ C, delta_q, XV_Q, Pi, gaps)
        object.__setattr__(w, "_tightened", memo)
    st, r, z, U_S, U_Q, P_S, delta_q, XV_Q, Pi, gaps = memo[1]  # P_S = U_S^T C, r x d_x
    p, q = st.p, st.q

    J1 = range(p, H)
    J2 = range(q + 1, p)
    J3 = range(2, q + 1)

    # a1: swap-type quadratic with eigenvalue gaps as weights; the Z products
    # Z_H..Z_{i+1} and Z_{i-1}..Z_1 are suffixes and prefixes of the Z chains.
    T1 = U_Q.T @ v.layer(H)[:, :r]
    for i in J1:
        T1 = T1 + z.suf[i + 1] @ v.layer(i)[r:, :r]
    a1 = float(np.sum(gaps * T1 * T1))

    # A2: the fitting-direction aggregate M, then M L.
    M = U_S.T @ v.layer(H)[:, :r] @ P_S
    for i in J1:
        M = M + v.layer(i)[:r, :r] @ P_S
    for i in J2:
        M = M + v.layer(i)[:r, :r] @ P_S + v.layer(i)[:r, r:] @ z.pre[i - 1]
    for i in J3:
        M = M + v.layer(i)[:r, :r] @ P_S + v.layer(i)[:r, r:] @ (z.pre[i - 1] @ Pi)
    A2 = (M + v.layer(1)[:r, :] @ Pi) @ bundle.L

    A3 = delta_q[:, None] * T1
    A4 = v.layer(1)[:r, :] @ XV_Q
    for i in J3:
        A4 = A4 + v.layer(i)[:r, r:] @ (z.pre[i - 1] @ XV_Q)
    A4 = A4.T

    return FtStDecomposition(a1=a1, A2=A2, A3=A3, A4=A4, structure=st)

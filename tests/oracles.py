"""Independent reference implementations used to cross-check the library.

Everything here is deliberately naive (loops, finite differences, literal
polarization) and shares no code with the package.
"""

from collections import namedtuple

import numpy as np


def naive_loss(layers, X, Y):
    """Triple-nested-loop Frobenius loss, no vectorized products."""
    P = X.copy()
    for W in layers:
        P = np.array([[sum(W[i, k] * P[k, j] for k in range(P.shape[0]))
                       for j in range(P.shape[1])] for i in range(W.shape[0])])
    total = 0.0
    for i in range(Y.shape[0]):
        for j in range(Y.shape[1]):
            total += (P[i, j] - Y[i, j]) ** 2
    return total


def fd_gradient(layers, X, Y, h=1e-6):
    """Central finite-difference gradient of ||W_H..W_1 X - Y||_F^2."""
    def L(ls):
        P = X
        for W in ls:
            P = W @ P
        R = P - Y
        return float(np.sum(R * R))

    grads = []
    for idx, W in enumerate(layers):
        G = np.zeros_like(W)
        for i in range(W.shape[0]):
            for j in range(W.shape[1]):
                Wp = [M.copy() for M in layers]
                Wm = [M.copy() for M in layers]
                Wp[idx][i, j] += h
                Wm[idx][i, j] -= h
                G[i, j] = (L(Wp) - L(Wm)) / (2 * h)
        grads.append(G)
    return grads


def line_loss(layers, dirs, X, Y, t):
    P = X
    for W, V in zip(layers, dirs):
        P = (W + t * V) @ P
    R = P - Y
    return float(np.sum(R * R))


def second_difference_c2(layers, dirs, X, Y, t=1e-4):
    """Quadratic Taylor coefficient via a symmetric second difference."""
    lp = line_loss(layers, dirs, X, Y, t)
    lm = line_loss(layers, dirs, X, Y, -t)
    l0 = line_loss(layers, dirs, X, Y, 0.0)
    return (lp + lm - 2 * l0) / (2 * t * t)


def polyfit_c2(layers, dirs, X, Y, degree):
    """Quadratic coefficient by exact polynomial interpolation of the line
    loss at degree+1 nodes (the line loss is a polynomial of that degree)."""
    ts = np.linspace(-1.0, 1.0, degree + 1)
    vals = [line_loss(layers, dirs, X, Y, t) for t in ts]
    V = np.vander(ts, degree + 1, increasing=True)
    coeffs = np.linalg.solve(V, vals)
    return coeffs  # coeffs[k] multiplies t^k


def reference_eigensystem(X, Y):
    """Eigen-decomposition of Sigma_YX Sigma_XX^{-1} Sigma_XY done from
    scratch with eigh (not an SVD of the whitened cross-covariance)."""
    sxx = X @ X.T
    syx = Y @ X.T
    sigma = syx @ np.linalg.inv(sxx) @ syx.T
    evals, evecs = np.linalg.eigh(sigma)
    order = np.argsort(evals)[::-1]
    return evals[order], evecs[:, order]


def full_svd_bundle(X, Y):
    """sigma_half = Sigma_YX Sigma_XX^{-1} X (d_y x m) and its full SVD
    U delta V^T, with the rectangular-diagonal delta and the m x m orthogonal
    V.  The first entry of each U column above 1e-12 of its largest is made
    nonnegative, and the matching V column is flipped along."""
    sxx = X @ X.T
    syx = Y @ X.T
    sigma_half = syx @ np.linalg.inv(sxx) @ X
    U, s, Vt = np.linalg.svd(sigma_half, full_matrices=True)
    V = Vt.T.copy()
    for k in range(U.shape[1]):
        col = U[:, k]
        first = np.flatnonzero(np.abs(col) > 1e-12 * np.abs(col).max())[0]
        if col[first] < 0:
            U[:, k] = -col
            V[:, k] = -V[:, k]
    delta = np.zeros(sigma_half.shape)
    delta[:, :len(s)] = np.diag(s)
    return sigma_half, U, delta, V


def m_column_ftst(layers, dirs, X, Y, r, p, q):
    """A2 (r x m) and A4 of the tightened-point decomposition in their
    m-column form, from the full SVD: P_S = U_S^T C X with
    C = Sigma_YX Sigma_XX^{-1}, X V_Q with V_Q the columns r+1..d_y of V,
    and the m x m projector Pi = V_S' V_S'^T onto the columns [1, r] and
    [d_y+1, m] of V.  The Z blocks are the lower-right blocks of layers
    1..H-1 of canonical weights with support [1, r]."""
    H = len(layers)
    _, U, _, V = full_svd_bundle(X, Y)
    d_y, m = U.shape[0], X.shape[1]
    C = (Y @ X.T) @ np.linalg.inv(X @ X.T)
    U_S = U[:, :r]
    P_S = U_S.T @ C @ X
    keep = list(range(r)) + list(range(d_y, m))
    Pi = V[:, keep] @ V[:, keep].T
    XV_Q = X @ V[:, r:d_y]
    z = [layers[0][r:, :]] + [W[r:, r:] for W in layers[1:H - 1]]

    def zx(k):  # Z_k .. Z_1 X
        out = X
        for Z in z[:k]:
            out = Z @ out
        return out

    v = dirs
    A2 = U_S.T @ v[H - 1][:, :r] @ P_S
    for i in range(p, H):
        A2 = A2 + v[i - 1][:r, :r] @ P_S
    for i in range(q + 1, p):
        A2 = A2 + v[i - 1][:r, :r] @ P_S + v[i - 1][:r, r:] @ zx(i - 1)
    for i in range(2, q + 1):
        A2 = A2 + v[i - 1][:r, :r] @ P_S + v[i - 1][:r, r:] @ zx(i - 1) @ Pi
    A2 = A2 + v[0][:r, :] @ X @ Pi
    A4 = v[0][:r, :] @ XV_Q
    for i in range(2, q + 1):
        A4 = A4 + v[i - 1][:r, r:] @ (zx(i - 1) @ V[:, r:d_y])
    return A2, A4.T


def m_column_c2(layers, dirs, X, Y):
    """c2 = ||A_1||^2 + 2 <A_2, R> from the order-1 and order-2 terms A_1,
    A_2 of (W_H + t V_H)..(W_1 + t V_1) X and the residual
    R = W_H..W_1 X - Y, every array with the m columns of X."""
    A0, A1, A2 = X, np.zeros_like(X), np.zeros_like(X)
    for W, V in zip(layers, dirs):
        A0, A1, A2 = W @ A0, W @ A1 + V @ A0, W @ A2 + V @ A1
    R = A0 - Y
    return float(np.sum(A1 * A1)) + 2.0 * float(np.sum(A2 * R))


def m_column_hessian_matvec(layers, dirs, X, Y):
    """The Hessian of ||W_H..W_1 X - Y||^2 applied to the direction dirs,
    as one block per layer, by Pearlmutter's R-operator on m-column passes:
    forward products P_h = W_h..W_1 X (P_0 = X), adjoints
    B_h = (W_H..W_{h+1})^T R (B_H = R), their derivatives dP_h and dB_h
    along dirs, and blocks 2 (dB_h P_{h-1}^T + B_h dP_{h-1}^T)."""
    H = len(layers)
    P = [X]
    for W in layers:
        P.append(W @ P[-1])
    B = [None] * (H + 1)
    B[H] = P[H] - Y
    for h in range(H, 1, -1):
        B[h - 1] = layers[h - 1].T @ B[h]
    dP = [np.zeros_like(X)]
    for h in range(1, H + 1):
        dP.append(layers[h - 1] @ dP[-1] + dirs[h - 1] @ P[h - 1])
    dB = [None] * (H + 1)
    dB[H] = dP[H]
    for h in range(H, 1, -1):
        dB[h - 1] = layers[h - 1].T @ dB[h] + dirs[h - 1].T @ B[h]
    return [2.0 * (dB[h] @ P[h - 1].T + B[h] @ dP[h - 1].T) for h in range(1, H + 1)]


def moment_loss(P, sigma_xx, sigma_yx, sigma_yy):
    """Square loss of the global map P (one or a stack) from the second
    moments as <P Sigma_XX - 2 Sigma_YX, P> + tr Sigma_YY."""
    G = (P @ sigma_xx - 2.0 * sigma_yx) * P
    return G.reshape(G.shape[:-2] + (-1,)).sum(axis=-1) + np.trace(sigma_yy)


def suffix_table_gradient(prefixes, suffixes, sigma_xx, sigma_yx):
    """Gradient of the square loss from a full product table (prefixes[h] =
    W_h..W_1 for h in [0, H], suffixes[h] = W_H..W_h for h in [1, H + 1]),
    one block per layer: 2 (W_H..W_{h+1})^T (P Sigma_XX - Sigma_YX)
    (W_{h-1}..W_1)^T, flattened row-major into one parameter vector per
    network."""
    H = len(prefixes) - 1
    G = 2.0 * (prefixes[H] @ sigma_xx - sigma_yx)
    blocks = [suffixes[h + 1].swapaxes(-1, -2) @ G @ prefixes[h - 1].swapaxes(-1, -2)
              for h in range(1, H + 1)]
    return np.concatenate([B.reshape(B.shape[:-2] + (-1,)) for B in blocks], axis=-1)


def layerwise_hessian_matvec(layers, sigma_xx, sigma_yx, dirs):
    """The Hessian of the loss applied to the direction dirs, as one block
    per layer, by Pearlmutter's R-operator on d_x-column passes, one layer
    at a time: prefixes P_h = W_h..W_1 (P_0 = I), adjoints
    B_h = W_{h+1}^T B_{h+1} from B_H = P_H Sigma_XX - Sigma_YX, their
    derivatives dP_h = W_h dP_{h-1} + V_h P_{h-1} and
    dB_{h-1} = W_h^T dB_h + V_h^T B_h from dB_H = dP_H Sigma_XX, and blocks
    2 (dB_h P_{h-1}^T + B_h dP_{h-1}^T) (2 dB_1 for the first layer), each
    term its own product."""
    H = len(layers)
    P = [np.eye(sigma_xx.shape[0])]
    for W in layers:
        P.append(W @ P[-1])
    B = [None] * (H + 1)
    B[H] = P[H] @ sigma_xx - sigma_yx
    for h in range(H, 1, -1):
        B[h - 1] = layers[h - 1].T @ B[h]
    dP = [None, dirs[0]]
    for h in range(2, H + 1):
        dP.append(layers[h - 1] @ dP[-1] + dirs[h - 1] @ P[h - 1])
    blocks = [None] * H
    dB = dP[H] @ sigma_xx
    for h in range(H, 1, -1):
        blocks[h - 1] = 2.0 * (dB @ P[h - 1].T + B[h] @ dP[h - 1].T)
        dB = layers[h - 1].T @ dB + dirs[h - 1].T @ B[h]
    blocks[0] = 2.0 * dB
    return blocks


def polarization_hessian(c2_fn, shapes):
    """Dense Hessian of 2*c2 from the literal polarization identity
    Q(u, v) = c2(u + v) - c2(u) - c2(v), one basis pair at a time."""
    sizes = [r * c for r, c in shapes]
    n = sum(sizes)

    def basis(k):
        flat = np.zeros(n)
        flat[k] = 1.0
        mats, off = [], 0
        for (r, c), s in zip(shapes, sizes):
            mats.append(flat[off:off + s].reshape(r, c))
            off += s
        return mats

    H = np.zeros((n, n))
    for a in range(n):
        ea = basis(a)
        qaa = c2_fn(ea)
        H[a, a] = 2 * qaa
        for b in range(a + 1, n):
            eb = basis(b)
            eab = [u + v for u, v in zip(ea, eb)]
            q = c2_fn(eab) - qaa - c2_fn(eb)
            H[a, b] = H[b, a] = q
    return H


def best_rank_r_map(X, Y, r):
    """The rank-r least-squares map U_r U_r^T C, C = Y X^T (X X^T)^{-1}, with
    U_r the top r eigenvectors of C X Y^T, all formed densely from the
    samples."""
    C = Y @ X.T @ np.linalg.inv(X @ X.T)
    U = np.linalg.eigh(C @ X @ Y.T)[1][:, ::-1][:, :r]
    return U @ U.T @ C


SweptPivot = namedtuple("SweptPivot", "i j rank1 rank2 tightened")


def _chain(mats, n):
    """mats[-1] @ ... @ mats[0], the n x n identity for an empty list."""
    out = np.eye(n)
    for M in mats:
        out = M @ out
    return out


def _count_above(M, absolute, relative):
    s = np.linalg.svd(M, compute_uv=False)
    rel = max(M.shape) * np.finfo(float).eps if relative is None else relative
    return int(np.count_nonzero(s > absolute + rel * s[0])) if s[0] > 0 else 0


def all_pivots_sweep(layers, sigma_xy, r, relative=None):
    """Every pivot (i, j), 1 <= j < i <= H, in (i, j) order, each block formed
    from its definition and cut on its own at 100 H eps times the product of
    its own factors' 2-norms plus relative sigma_max (relative None:
    max(shape) eps): the middle block W_{i-1}..W_{j+1} holds its layers, the
    outer block W_{j-1}..W_1 Sigma_XY W_H..W_{i+1} Sigma_XY and its layers."""
    H = len(layers)
    n = [np.linalg.norm(W, 2) for W in layers]
    unit = 100 * H * np.finfo(float).eps
    out = []
    for i in range(2, H + 1):
        for j in range(1, i):
            outer = (_chain(layers[:j - 1], sigma_xy.shape[0]) @ sigma_xy
                     @ _chain(layers[i:], layers[i - 1].shape[0]))
            outer_floor = unit * np.linalg.norm(sigma_xy, 2) * np.prod(n[:j - 1] + n[i:])
            rank1 = _count_above(outer, outer_floor, relative)
            rank2 = _count_above(_chain(layers[j:i - 1], layers[j - 1].shape[0]),
                                 unit * np.prod(n[j:i - 1]), relative)
            out.append(SweptPivot(i, j, rank1, rank2, min(rank1, rank2) == r))
    return out


def spec_verdict(spec, bundle, rel=1e-8):
    """(critical, verdict) of a spec (S, Z, D), read from its Z products
    alone; D plays no part.  With G = Sigma_XY U_Q, the spec is critical when
    Z_H..Z_1 = 0 and Z_{h-1}..Z_1 G Z_H..Z_{h+1} = 0 for every h.  A critical
    spec is a global minimizer when r = r_max and S = [1, r], a strict saddle
    when S != [1, r], and otherwise a non-strict saddle exactly when every
    pivot (i, j), 1 <= j < i <= H, has Z_{j-1}..Z_1 G Z_H..Z_{i+1} = 0 or
    Z_{i-1}..Z_{j+1} = 0.  A product counts as zero when its Frobenius norm
    is at most rel times the product of its factors' Frobenius norms.  The
    verdict of a spec that is not critical is None."""
    Z = list(spec.z_blocks)
    H, S, r = len(Z), tuple(spec.support), len(spec.support)
    G = bundle.sigma_xy @ bundle.U[:, [k for k in range(bundle.U.shape[0]) if k + 1 not in S]]
    sizes = [Z[0].shape[1]] + [M.shape[0] for M in Z]  # e_0 .. e_H

    def vanishes(first, mats):
        # mats in the order they apply, so the product is mats[-1] @ ... @ mats[0]
        P = _chain(mats, sizes[first])
        return np.linalg.norm(P) <= rel * np.prod([np.linalg.norm(M) for M in mats])

    def outer(i, j):  # Z_{j-1}..Z_1 G Z_H..Z_{i+1}
        return vanishes(i, Z[i:] + [G] + Z[:j - 1])

    critical = vanishes(0, Z) and all(outer(h, h) for h in range(1, H + 1))
    if not critical:
        return False, None
    if S != tuple(range(1, r + 1)):
        return True, "strict_saddle"
    if r == min(sizes[0], *(e + r for e in sizes[1:])):
        return True, "global_minimizer"
    tightened = all(outer(i, j) or vanishes(j, Z[j:i - 1])
                    for i in range(2, H + 1) for j in range(1, i))
    return True, "non_strict_saddle" if tightened else "strict_saddle"


def loop_svd_signs(U, P):
    """The column-by-column sign convention: the first entry of each U column
    above 1e-12 max(1, max |column|) in magnitude is made nonnegative, and
    the matching column of P is flipped along."""
    U, P = U.copy(), P.copy()
    for k in range(U.shape[1]):
        col = U[:, k]
        nz = np.nonzero(np.abs(col) > 1e-12 * max(1.0, np.abs(col).max()))[0]
        if nz.size and col[nz[0]] < 0:
            U[:, k] = -col
            P[:, k] = -P[:, k]
    return U, P

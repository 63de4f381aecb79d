"""Construction and recovery of first-order critical points.

Critical points are parameterized by a support set S of eigenvector indices,
free blocks Z_1..Z_H and invertible blocks D_1..D_{H-1}:

    W_H = [U_S, U_Q Z_H] D_{H-1}^{-1}
    W_h = D_h [[I_r, 0], [0, Z_h]] D_{h-1}^{-1}     for h in [2, H-1]
    W_1 = D_1 [U_S^T Sigma_YX Sigma_XX^{-1} ; Z_1]

With G = Sigma_XY U_Q, such a point is critical exactly when Z_H..Z_1 = 0
and Z_{h-1}..Z_1 G Z_H..Z_{h+1} = 0 for every h; D plays no part.
canonical_form is the inverse: from the support S and the suffixes of the
weights' product table it sets D_h = [F_h | E_h], F_h the signal columns
that W_H..W_{h+1} maps onto U_S and E_h the kernel of U_S^T W_H..W_{h+1},
its columns as long as F_h's on average.
"""

from __future__ import annotations

import itertools
import json
import math
import weakref
from dataclasses import dataclass

import numpy as np

from .data_model import SigmaBundle
from .errors import (
    AmbiguousProjector,
    DegenerateBasis,
    IllConditioned,
    InvalidRank,
    InvalidShape,
    NoTightenedPointExists,
    NotCritical,
    TooLarge,
)
from .network import (
    NetworkShape,
    Weights,
    global_map,
    gradient,
    layer_products,
    partial_suffix,
)
from .ranktol import (
    D_COND_LIMIT,
    EPS_CANON,
    RankTolerance,
    chain_floor,
    criticality_scale,
    criticality_tol,
    floored,
    frob,
    spectral_norms,
)

MAX_SUPPORTS = 2**20  # enumerate_critical_values lists no more supports: all of d_y = 20


def z_block_shape(shape: NetworkShape, r: int, h: int) -> tuple[int, int]:
    """Shape of the free block Z_h for support size r (1-based h); InvalidShape
    unless 1 <= h <= H, so a spec with too many blocks is refused here."""
    if not 1 <= h <= shape.H:
        raise InvalidShape(f"Z_{h}: the network has {shape.H} layers")
    if h == 1:
        return (shape.dims[1] - r, shape.d_x)
    if h == shape.H:
        return (shape.d_y - r, shape.dims[shape.H - 1] - r)
    return (shape.dims[h] - r, shape.dims[h - 1] - r)


@dataclass(frozen=True)
class CriticalPointSpec:
    """(S, Z, D) parameterization of a critical point."""

    support: tuple  # sorted 1-based indices into [1, d_y]
    z_blocks: tuple  # Z_1 .. Z_H
    d_blocks: tuple | None = None  # D_1 .. D_{H-1}, None means identities

    @property
    def r(self) -> int:
        return len(self.support)

    def validate(self, shape: NetworkShape, d_y: int) -> None:
        r = self.r
        if r > shape.r_max:
            raise InvalidRank(f"|S| = {r} exceeds r_max = {shape.r_max}")
        if any(not (1 <= s <= d_y) for s in self.support):
            raise InvalidRank("support indices must lie in [1, d_y]")
        if len(set(self.support)) != r or tuple(sorted(self.support)) != tuple(self.support):
            raise InvalidRank("support must be sorted and duplicate-free")
        if len(self.z_blocks) != shape.H:
            raise InvalidShape(f"need {shape.H} Z blocks, got {len(self.z_blocks)}")
        for h, Z in enumerate(self.z_blocks, start=1):
            want = z_block_shape(shape, r, h)
            if Z.shape != want:
                raise InvalidShape(f"Z_{h}: expected shape {want}, got {Z.shape}")
        if self.d_blocks is not None:
            if len(self.d_blocks) != shape.H - 1:
                raise InvalidShape(
                    f"need {shape.H - 1} D blocks, got {len(self.d_blocks)}"
                )
            for h, D in enumerate(self.d_blocks, start=1):
                if D.shape != (shape.dims[h], shape.dims[h]):
                    raise InvalidShape(f"D_{h} must be {shape.dims[h]} square")


@dataclass(frozen=True)
class SupportResult:
    support: tuple
    projector_diag: np.ndarray
    residual: float
    approximate: bool = False


def spec_to_json(spec: CriticalPointSpec) -> str:
    return json.dumps(
        {
            "support": list(spec.support),
            "z_blocks": [Z.tolist() for Z in spec.z_blocks],
            "d_blocks": None
            if spec.d_blocks is None
            else [D.tolist() for D in spec.d_blocks],
        }
    )


def spec_from_json(text: str, shape: NetworkShape) -> CriticalPointSpec:
    obj = json.loads(text)
    support = tuple(sorted(int(s) for s in obj["support"]))
    rr = len(support)
    z_blocks = tuple(
        np.asarray(Z, dtype=float).reshape(z_block_shape(shape, rr, h))
        for h, Z in enumerate(obj["z_blocks"], start=1)
    )
    d_blocks = obj.get("d_blocks")
    if d_blocks is not None:
        d_blocks = tuple(np.asarray(D, dtype=float) for D in d_blocks)
    return CriticalPointSpec(support=support, z_blocks=z_blocks, d_blocks=d_blocks)


def staircase(layers, middle_live, outer_live):
    """The first pivot (i, j), 1 <= j < i <= H = len(layers), in (i, j)
    order at which middle_live(i, j, L_{i-1}..L_{j+1}) and outer_live(i, j)
    both hold, or None.  A dead chain stays dead when made longer, so in
    column j the middle chain is live up to some b(j) and the outer chain
    from some a(j) on, both rising with j, and the first such pivot is
    (a(j1), j1) for the first j1 whose outer chain is live at b(j1).  Column
    j starts at b(j - 1), whose middle chain is part of a live one, and climbs
    one layer product per step; b rises at most H - 2 times in all, so the
    walk makes fewer than 4H predicate calls instead of H(H - 1)."""
    H, b = len(layers), 2
    for j in range(1, H):
        i = max(b, j + 1)
        mid = np.eye(layers[j - 1].shape[0])
        for L in layers[j:i - 1]:
            mid = L @ mid
        while i < H:
            mid = layers[i - 1] @ mid  # L_i..L_{j+1}
            if not middle_live(i + 1, j, mid):
                break
            i += 1
        if outer_live(i, j):
            while i > j + 1 and outer_live(i - 1, j):
                i -= 1
            return i, j
        b = i
    return None


class _ZChains:
    """Zero tests, each at its ``chain_floor``, on the chains of the blocks
    Z_1..Z_H of a spec and G = Sigma_XY U_Q: pre[k] = Z_k..Z_1,
    suf[h] = Z_H..Z_h, zg[k] = Z_k..Z_1 G (k < H), ||Z_h||_2 = norms[h - 1]."""

    def __init__(self, z_blocks, G):
        self.blocks = [np.ascontiguousarray(Z) for Z in z_blocks]
        self.H = len(self.blocks)
        self.pre, self.suf = layer_products(self.blocks)
        self.zg = [P @ G for P in self.pre[:-1]]
        *self.norms, self.g_norm = spectral_norms(self.blocks + [G])

    def zero(self, P, factor_norms) -> bool:
        return frob(P) <= chain_floor(self.H, factor_norms)

    def outer_zero(self, i, j) -> bool:
        """Whether Z_{j-1}..Z_1 G Z_H..Z_{i+1} vanishes."""
        n = self.norms
        return self.zero(self.zg[j - 1] @ self.suf[i + 1], n[:j - 1] + [self.g_norm] + n[i:])

    def nonzero_product(self):
        """The first product of the criticality condition that is not zero."""
        if not self.zero(self.pre[-1], self.norms):
            return "Z_H..Z_1"
        return next((f"Z_{h - 1}..Z_1 G Z_H..Z_{h + 1}" for h in range(1, self.H + 1)
                     if not self.outer_zero(h, h)), None)

    def untightened_pivot(self):
        """The first pivot (i, j) in (i, j) order whose outer chain
        Z_{j-1}..Z_1 G Z_H..Z_{i+1} and middle chain Z_{i-1}..Z_{j+1} are both
        nonzero (``staircase``), None if all are tightened."""
        return staircase(self.blocks, lambda i, j, mid: not self.zero(mid, self.norms[j:i - 1]),
                         lambda i, j: not self.outer_zero(i, j))


def _conditioned(D: np.ndarray, name: str) -> None:
    """Refuse (IllConditioned) a block D past condition number D_COND_LIMIT."""
    cond = np.linalg.cond(D)
    if not np.isfinite(cond) or cond > D_COND_LIMIT:
        raise IllConditioned(f"{name} has condition number {cond:.3g}")


def build_critical_point(
    spec: CriticalPointSpec,
    bundle: SigmaBundle,
    shape: NetworkShape,
    require_certified: bool = True,
) -> Weights:
    """Materialize weights from a spec.  Raises NotCritical unless the spec
    meets the exact criticality condition of the module docstring, each
    product cut at its ``chain_floor``; require_certified=False skips that
    check.  Omitted D blocks are identities, and the layers are then the
    block matrices themselves."""
    if shape.d_x != bundle.d_x or shape.d_y != bundle.d_y:
        raise InvalidShape("shape incompatible with bundle")
    spec.validate(shape, bundle.d_y)
    r = spec.r
    U_S = bundle.u_cols(spec.support)
    U_Q = bundle.u_complement(spec.support)
    if require_certified:
        if bad := _ZChains(spec.z_blocks, bundle.sigma_xy @ U_Q).nonzero_product():
            raise NotCritical(f"the spec is not critical: {bad} is not zero")

    H = shape.H
    layers = [np.vstack([U_S.T @ bundle.sigma_yx_sigma_xx_inv, spec.z_blocks[0]])]
    for h in range(2, H):
        B = np.zeros((shape.dims[h], shape.dims[h - 1]))
        B[:r, :r] = np.eye(r)
        B[r:, r:] = spec.z_blocks[h - 1]
        layers.append(B)
    layers.append(np.hstack([U_S, U_Q @ spec.z_blocks[-1]]))
    if (d := spec.d_blocks) is not None:  # W_h = D_h B_h D_{h-1}^{-1}
        for h, D in enumerate(d, start=1):
            _conditioned(D, f"D_{h}")
        d_invs = [np.linalg.inv(D) for D in d]
        layers = ([d[0] @ layers[0]]
                  + [d[h - 1] @ layers[h - 1] @ d_invs[h - 2] for h in range(2, H)]
                  + [layers[-1] @ d_invs[-1]])
    return Weights(layers, shape)


def build_example_family(
    r: int,
    variant: str,
    bundle: SigmaBundle,
    shape: NetworkShape,
    interior: str = "unit_corner",
) -> Weights:
    """The two reference families with S = [1, r], r < r_max.

    non_tightened: interior Z blocks are nonzero with nonzero product, so the
    pivot (H, 1) is not tightened.  interior="unit_corner" puts a single 1 in
    the top-left corner of each; interior="identity" uses full (rectangular)
    identity blocks, which is the variant used by the escape experiments.
    tightened: every Z block vanishes, so W_1, W_2 and W_H all have rank r.
    """
    if variant not in ("tightened", "non_tightened"):
        raise ValueError(f"unknown variant {variant!r}")
    if interior not in ("unit_corner", "identity"):
        raise ValueError(f"unknown interior fill {interior!r}")
    if shape.H == 2:
        if variant == "tightened":
            raise NoTightenedPointExists(
                "with one hidden layer there is no tightened critical point "
                "of deficient rank"
            )
        raise InvalidShape("the example families require depth H >= 3")
    if not (0 <= r < shape.r_max):
        raise InvalidRank(f"need 0 <= r < r_max = {shape.r_max}, got {r}")

    z_blocks = []
    for h in range(1, shape.H + 1):
        Z = np.zeros(z_block_shape(shape, r, h))
        if variant == "non_tightened" and 2 <= h <= shape.H - 1 and Z.size:
            if interior == "identity":
                Z[:, :] = np.eye(*Z.shape)
            else:
                Z[0, 0] = 1.0
        z_blocks.append(Z)
    spec = CriticalPointSpec(
        support=tuple(range(1, r + 1)), z_blocks=tuple(z_blocks)
    )
    return build_critical_point(spec, bundle, shape)


def associated_support(
    w: Weights,
    bundle: SigmaBundle,
    tau_crit: float | None = None,
    rank_tol: RankTolerance = RankTolerance(),
    _gate: tuple | None = None,
) -> SupportResult:
    """Recover the support S of a critical point from the column-space
    projector of K = W_H ... W_2 expressed in the eigenbasis U.

    ``_gate`` is the hand-off of ``classify``: the gradient norm and the
    criticality scale it has already formed.  It lets gradient norms up to
    100 tau through, and such points are recovered with the approximate flag
    set; without it the gradient norm must be at most tau.

    A recovery that is not approximate is kept on ``w`` as its support
    record: the gradient norm, the scale, ``rank_tol``, tau and the result,
    keyed by the bundle object through a weak reference.  A later call with
    the same bundle object takes the gradient norm and the scale from it,
    and returns its result when ``rank_tol`` and tau are equal too, so that
    ``canonical_form`` after ``classify`` makes no second gradient and no
    second SVD of K.  An approximate recovery is never kept, so a call
    without the gate still refuses such a point."""
    record = w._support
    record = record[1] if record is not None and record[0]() is bundle else None
    if _gate is not None:
        gn, scale = _gate
    elif record is not None:
        gn, scale = record[:2]
    else:
        gn = gradient(w, bundle).frob_norm()
        scale = criticality_scale(w, bundle)
    tau = criticality_tol(tau_crit, scale)
    if record is not None and record[:4] == (gn, scale, rank_tol, tau):
        return record[4]
    approximate = bool(gn > tau)
    if approximate and _gate is None:
        raise NotCritical(f"gradient norm {gn:.3g} exceeds tolerance {tau:.3g}")

    K = partial_suffix(w, 2)
    uK, sK, _ = np.linalg.svd(K, full_matrices=False)
    smax = float(sK[0]) if sK.size else 0.0
    # Noise of size delta in the weights leaks O(delta) spurious singular
    # values into K while inflating the gradient to O(delta * scale), so cut
    # the spectrum at the measured gradient level (with headroom) as well as
    # at the rounding floor of the product of layers 2..H, past ``rank_cut``.
    eff_tol = floored(rank_tol, w.shape.H, w.layer_norms()[1:])
    sv_tol = max(eff_tol.threshold(K.shape, smax), 10.0 * (gn / scale) * smax)
    rk = int(np.count_nonzero(sK > sv_tol)) if sK.size else 0
    G = bundle.U.T @ uK[:, :rk]  # diag(U^T P_K U): the squared row norms of G
    diag = np.einsum("ij,ij->i", G, G)

    if np.any((diag >= 0.25) & (diag <= 0.75)):
        raise AmbiguousProjector(
            f"projector diagonal entries in the ambiguity band: {np.round(diag, 4)}"
        )
    support = tuple(int(i + 1) for i in np.nonzero(diag > 0.5)[0])
    residual = float(np.max(np.minimum(np.abs(diag), np.abs(diag - 1.0)))) if diag.size else 0.0

    # The global map must match the projected regression optimum.
    U_S = bundle.u_cols(support)
    target = U_S @ (U_S.T @ bundle.sigma_yx_sigma_xx_inv)
    map_err = frob(global_map(w) - target)
    map_tol = (100.0 * tau if approximate else tau) * (1.0 + frob(target))
    if map_err > map_tol:
        raise NotCritical(
            f"global map is {map_err:.3g} away from the support-S optimum"
        )
    result = SupportResult(
        support=support, projector_diag=diag, residual=residual, approximate=approximate
    )
    if not approximate:
        diag.flags.writeable = False
        object.__setattr__(w, "_support",
                           (weakref.ref(bundle), (gn, scale, rank_tol, tau, result)))
    return result


def critical_value(S, bundle: SigmaBundle) -> float:
    """tr(Sigma_YY) - sum of lambdas over S (empty sum = 0): the loss at any
    critical point of support S, of whatever shape; |S| <= r_max is not checked."""
    S = tuple(sorted(S))
    if any(not (1 <= s <= bundle.d_y) for s in S) or len(set(S)) != len(S):
        raise InvalidRank("S must be a subset of [1, d_y]")
    return float(bundle.sigma_yy_trace - sum(bundle.lambdas[s - 1] for s in S))


def enumerate_critical_values(bundle: SigmaBundle, shape: NetworkShape):
    """All achievable critical values: one per subset S of size <= r_max,
    sorted by increasing value.  Supports of the form [1, r] are flagged as
    plateau candidates (the only ones admitting non-strict saddles)."""
    n = sum(math.comb(bundle.d_y, r) for r in range(shape.r_max + 1))
    if n > MAX_SUPPORTS:
        raise TooLarge(f"{n} supports exceed the enumeration limit {MAX_SUPPORTS}")
    out = []
    for r in range(0, shape.r_max + 1):
        for S in itertools.combinations(range(1, bundle.d_y + 1), r):
            v = critical_value(S, bundle)
            hint = "plateau" if S == tuple(range(1, r + 1)) else "strict_only"
            out.append((S, v, hint))
    out.sort(key=lambda t: (t[1], t[0]))
    return out


# ---------------------------------------------------------------------------
# Canonicalization: recover (S, Z, D) from an arbitrary critical point.
# ---------------------------------------------------------------------------

def _aligned_kernel(vt_ker: np.ndarray) -> np.ndarray:
    """An orthonormal basis, as columns, of the row space of the orthonormal
    rows vt_ker, aligned with the coordinate axes: Gram-Schmidt over the
    columns of its projector in natural order, skipping those already in the
    span, so that a space spanned by axes gets those axes back.  It runs in
    the coordinates of vt_ker, so the basis lies in its row space to
    rounding."""
    k = vt_ker.shape[0]
    Q, n = np.zeros((k, k)), 0
    for col in vt_ker.T:
        if n == k:
            break
        v = col - Q[:, :n] @ (Q[:, :n].T @ col)
        nv = math.sqrt(v @ v)
        if nv > 1e-8:
            Q[:, n] = v / nv
            n += 1
    return vt_ker.T @ Q


def _canonical_blocks(w: Weights, bundle: SigmaBundle, support, norm_w: float, error):
    """The blocks Z_1..Z_H of weights in canonical form for ``support``,

        W_H = [U_S, U_Q Z_H],  W_h = [[I_r, 0], [0, Z_h]],  W_1 = [U_S^T C; Z_1],
        W_H..W_2 = [U_S, 0],   C = Sigma_YX Sigma_XX^{-1}.

    Raises ``error`` when a residual of these equations exceeds
    EPS_CANON (1 + norm_w + ||C||), norm_w the Frobenius norm of the weights
    the point came from."""
    r = len(support)
    U_S, U_Q = bundle.u_cols(support), bundle.u_complement(support)
    C = bundle.sigma_yx_sigma_xx_inv
    W = w.layers
    z = [W[0][r:, :]] + [Wh[r:, r:] for Wh in W[1:-1]] + [U_Q.T @ W[-1][:, r:]]
    K = partial_suffix(w, 2)
    errs = [  # by blocks, leaving out those that z is read from
        frob(W[0][:r, :] - U_S.T @ C),
        frob(W[-1][:, :r] - U_S, W[-1][:, r:] - U_Q @ z[-1]),
        frob(K[:, :r] - U_S, K[:, r:]),
    ] + [frob(Wh[:r, :r] - np.eye(r), Wh[:r, r:], Wh[r:, :r]) for Wh in W[1:-1]]
    tol = EPS_CANON * (1.0 + norm_w + frob(C))
    if max(errs) > tol:
        raise error(f"canonical residual {max(errs):.3g} exceeds tolerance {tol:.3g}")
    return z


def canonical_form(
    w: Weights,
    bundle: SigmaBundle,
    rank_tol: RankTolerance = RankTolerance(),
    tau_crit: float | None = None,
) -> CriticalPointSpec:
    """Recover a (S, Z, D) spec of a critical point, the inverse of
    ``build_critical_point``.  With the support S from
    ``associated_support``, which reads the support record that ``classify``
    left on ``w`` for the same bundle object, ``rank_tol`` and tau, and
    A_h = U_S^T W_H..W_{h+1}, of rank r = |S| at
    a critical point, D_h = [F_h | E_h] with F_1 = A_1^+ (so that
    W_H..W_2 F_1 = U_S), F_h = W_h F_{h-1} and E_h an orthonormal basis of
    ker A_h aligned with the axes, times ||F_h||_F / sqrt(r) so that
    cond(D_h) does not follow the scale of the layers.  W_{h+1} maps F_h
    onto F_{h+1} and ker A_h into ker A_{h+1}, which puts every layer in the
    block form of the module docstring; ``_canonical_blocks`` verifies it.
    No rank is cut beyond the support recovery's.  A block Z_h is snapped to
    zero when its norm is at most EPS_CANON times that of its transformed
    layer."""
    S = associated_support(w, bundle, tau_crit=tau_crit, rank_tol=rank_tol).support
    r = len(S)
    U_S = bundle.u_cols(S)
    d_list, wt = [np.eye(d) for d in w.shape.dims[1:-1]], w  # r = 0: every A_h is empty
    if r:
        for h in range(1, w.shape.H):
            u, s, vt = np.linalg.svd(U_S.T @ partial_suffix(w, h + 1))
            if h == 1 and not s[-1] > 0:
                raise IllConditioned(f"U_S^T W_H..W_2 has rank below |S| = {r}")
            F = vt[:r].T @ (u.T / s[:, None]) if h == 1 else w.layer(h) @ F
            D = d_list[h - 1] = np.hstack([F, frob(F) / math.sqrt(r) * _aligned_kernel(vt[r:])])
            _conditioned(D, f"canonical D_{h}")
        wt = transform_weights(w, d_list)
    z = _canonical_blocks(wt, bundle, S, w.frob_norm(), DegenerateBasis)
    z_final = tuple(
        np.zeros_like(Z) if frob(Z) <= EPS_CANON * frob(Wh) else Z.copy()
        for Z, Wh in zip(z, wt.layers)
    )
    return CriticalPointSpec(support=S, z_blocks=z_final, d_blocks=tuple(d_list))


def transform_weights(w: Weights, d_list) -> Weights:
    """Re-parameterize weights by invertible D_h blocks (keeps the global
    map and the nature of the critical point unchanged): Wt_H = W_H D_{H-1},
    Wt_1 = D_1^{-1} W_1, Wt_h = D_h^{-1} W_h D_{h-1}."""
    H = w.shape.H
    out = [np.linalg.solve(d_list[0], w.layer(1))]
    for h in range(2, H):
        out.append(np.linalg.solve(d_list[h - 1], w.layer(h) @ d_list[h - 2]))
    out.append(w.layer(H) @ d_list[H - 2])
    return Weights(out, w.shape)

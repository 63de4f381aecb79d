"""Construction and recovery of first-order critical points.

Critical points are parameterized by a support set S of eigenvector indices,
free blocks Z_1..Z_H and invertible blocks D_1..D_{H-1}:

    W_H = [U_S, U_Q Z_H] D_{H-1}^{-1}
    W_h = D_h [[I_r, 0], [0, Z_h]] D_{h-1}^{-1}     for h in [2, H-1]
    W_1 = D_1 [U_S^T Sigma_YX Sigma_XX^{-1} ; Z_1]

Such a point is certified critical when r = r_max or at least two Z blocks
vanish.  The converse direction (canonical_form) recovers (S, Z, D) from an
arbitrary first-order critical point by explicit basis completions.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field, replace

import numpy as np

from .data_model import SigmaBundle
from .errors import (
    AmbiguousProjector,
    DegenerateBasis,
    IllConditioned,
    InvalidRank,
    InvalidShape,
    NoTightenedPointExists,
    NotCertifiedCritical,
    NotCritical,
    TooLarge,
)
from .network import (
    NetworkShape,
    Weights,
    global_map,
    gradient,
    partial_middle,
    partial_suffix,
)
from .ranktol import (
    D_COND_LIMIT,
    EPS_CANON,
    TAU_CRIT_REL,
    RankTolerance,
    criticality_scale,
    product_rank_tolerance,
)


def z_block_shape(shape: NetworkShape, r: int, h: int) -> tuple[int, int]:
    """Shape of the free block Z_h for support size r (1-based h)."""
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
    certified: bool = True

    @property
    def r(self) -> int:
        return len(self.support)

    def zero_block_count(self) -> int:
        return sum(
            1 for Z in self.z_blocks if Z.size == 0 or not np.any(Z)
        )

    def is_certified_critical(self, r_max: int) -> bool:
        return self.r == r_max or self.zero_block_count() >= 2

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
            "certified": spec.certified,
        }
    )


def spec_from_json(text: str, shape: NetworkShape, r: int | None = None) -> CriticalPointSpec:
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
    return CriticalPointSpec(
        support=support,
        z_blocks=z_blocks,
        d_blocks=d_blocks,
        certified=bool(obj.get("certified", True)),
    )


def build_critical_point(
    spec: CriticalPointSpec,
    bundle: SigmaBundle,
    shape: NetworkShape,
    require_certified: bool = True,
) -> Weights:
    """Materialize weights from a spec.  Refuses specs outside the certified
    sufficient condition unless require_certified=False (used when round-
    tripping canonical forms that the theory does not certify)."""
    if shape.d_x != bundle.d_x or shape.d_y != bundle.d_y:
        raise InvalidShape("shape incompatible with bundle")
    spec.validate(shape, bundle.d_y)
    r = spec.r
    if require_certified and not spec.is_certified_critical(shape.r_max):
        raise NotCertifiedCritical(
            "spec has r < r_max and fewer than two zero Z blocks"
        )

    H = shape.H
    d_blocks = spec.d_blocks
    if d_blocks is None:
        d_blocks = tuple(np.eye(shape.dims[h]) for h in range(1, H))
    d_invs = []
    for h, D in enumerate(d_blocks, start=1):
        cond = np.linalg.cond(D)
        if not np.isfinite(cond) or cond > D_COND_LIMIT:
            raise IllConditioned(f"D_{h} condition number {cond:.3g} exceeds limit")
        d_invs.append(np.linalg.inv(D))

    U_S = bundle.u_cols(spec.support)
    U_Q = bundle.u_complement(spec.support)
    C = bundle.sigma_yx_sigma_xx_inv()

    layers = []
    W1 = d_blocks[0] @ np.vstack([U_S.T @ C, spec.z_blocks[0]])
    layers.append(W1)
    for h in range(2, H):
        B = np.zeros((shape.dims[h], shape.dims[h - 1]))
        B[:r, :r] = np.eye(r)
        B[r:, r:] = spec.z_blocks[h - 1]
        layers.append(d_blocks[h - 1] @ B @ d_invs[h - 2])
    WH = np.hstack([U_S, U_Q @ spec.z_blocks[H - 1]]) @ d_invs[H - 2]
    layers.append(WH)
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

    ``_gate`` is the hand-off of ``classify``: the gradient norm, the
    criticality scale and the floored rank tolerance it has already formed.
    It lets gradient norms up to 100 tau through, and such points are
    recovered with the approximate flag set; without it the gradient norm
    must be at most tau."""
    if _gate is None:
        gn = gradient(w, bundle).frob_norm()
        scale = criticality_scale(w, bundle)
        eff_tol = product_rank_tolerance(w, rank_tol)
    else:
        gn, scale, eff_tol = _gate
    tau = TAU_CRIT_REL * scale if tau_crit is None else tau_crit
    approximate = bool(gn > tau)
    if approximate and _gate is None:
        raise NotCritical(f"gradient norm {gn:.3g} exceeds tolerance {tau:.3g}")

    K = partial_suffix(w, 2)
    uK, sK, _ = np.linalg.svd(K)
    smax = float(sK[0]) if sK.size else 0.0
    # Noise of size delta in the weights leaks O(delta) spurious singular
    # values into K while inflating the gradient to O(delta * scale), so cut
    # the spectrum at the measured gradient level (with headroom) as well as
    # at the rounding floor of the layer product.
    sv_tol = max(eff_tol.threshold(K.shape, smax), 10.0 * (gn / scale) * smax)
    rk = int(np.count_nonzero(sK > sv_tol)) if sK.size else 0
    P_K = uK[:, :rk] @ uK[:, :rk].T
    diag = np.einsum("ij,jk,ki->i", bundle.U.T, P_K, bundle.U)

    if np.any((diag >= 0.25) & (diag <= 0.75)):
        raise AmbiguousProjector(
            f"projector diagonal entries in the ambiguity band: {np.round(diag, 4)}"
        )
    support = tuple(int(i + 1) for i in np.nonzero(diag > 0.5)[0])
    residual = float(np.max(np.minimum(np.abs(diag), np.abs(diag - 1.0)))) if diag.size else 0.0

    # The global map must match the projected regression optimum.
    U_S = bundle.u_cols(support)
    target = U_S @ (U_S.T @ bundle.sigma_yx_sigma_xx_inv())
    map_err = np.linalg.norm(global_map(w) - target)
    map_tol = (100.0 * tau if approximate else tau) * (
        1.0 + np.linalg.norm(target)
    )
    if map_err > map_tol:
        raise NotCritical(
            f"global map is {map_err:.3g} away from the support-S optimum"
        )
    return SupportResult(
        support=support, projector_diag=diag, residual=residual, approximate=approximate
    )


def critical_value(S, bundle: SigmaBundle, shape: NetworkShape | None = None) -> float:
    """tr(Sigma_YY) - sum of lambdas over S (empty sum = 0)."""
    S = tuple(sorted(S))
    if any(not (1 <= s <= bundle.d_y) for s in S) or len(set(S)) != len(S):
        raise InvalidRank("S must be a subset of [1, d_y]")
    if shape is not None and len(S) > shape.r_max:
        raise InvalidRank(f"|S| = {len(S)} exceeds r_max = {shape.r_max}")
    return float(np.trace(bundle.sigma_yy) - sum(bundle.lambdas[s - 1] for s in S))


def enumerate_critical_values(bundle: SigmaBundle, shape: NetworkShape):
    """All achievable critical values: one per subset S of size <= r_max,
    sorted by increasing value.  Supports of the form [1, r] are flagged as
    plateau candidates (the only ones admitting non-strict saddles)."""
    if bundle.d_y > 20:
        raise TooLarge(f"d_y = {bundle.d_y} > 20: subset enumeration refused")
    out = []
    for r in range(0, shape.r_max + 1):
        for S in itertools.combinations(range(1, bundle.d_y + 1), r):
            v = critical_value(S, bundle, shape)
            hint = "plateau" if S == tuple(range(1, r + 1)) else "strict_only"
            out.append((S, v, hint))
    out.sort(key=lambda t: (t[1], t[0]))
    return out


# ---------------------------------------------------------------------------
# Canonicalization: recover (S, Z, D) from an arbitrary critical point.
# ---------------------------------------------------------------------------

def clem_d_matrix(
    w: Weights,
    bundle: SigmaBundle,
    support,
    rank_tol: RankTolerance = RankTolerance(),
):
    """The invertible matrix D with W_H ... W_2 = [U_S, 0] D.

    Built from the SVD of K = W_H ... W_2: the top block of D is U_S^T K and
    the bottom block is an orthonormal basis of the kernel of K.  Returns
    (D, D_inv, K).  The last d_1 - r columns of D_inv span ker(K).
    """
    r = len(support)
    K = partial_suffix(w, 2)
    d_1 = K.shape[1]
    U_S = bundle.u_cols(support)
    if r == 0:
        D = np.eye(d_1)
        return D, D.copy(), K
    uK, sK, vtK = np.linalg.svd(K)
    thr = rank_tol.threshold(K.shape, float(sK[0]) if sK.size else 0.0)
    rk = int(np.count_nonzero(sK > thr))
    if rk != r:
        raise NotCritical(
            f"rank of W_H...W_2 is {rk}, expected |S| = {r}"
        )
    # Orthonormal kernel basis aligned with the coordinate axes: Gram-Schmidt
    # over the kernel projector's columns in natural order, so that a point
    # already in canonical position gets the identity-aligned basis back.
    P_ker = vtK[r:, :].T @ vtK[r:, :]
    basis = []
    for col in P_ker.T:
        v = col.copy()
        for u in basis:
            v -= (u @ v) * u
        nv = np.linalg.norm(v)
        if nv > 1e-8:
            basis.append(v / nv)
        if len(basis) == d_1 - r:
            break
    if len(basis) != d_1 - r:
        raise DegenerateBasis("could not assemble a kernel basis for W_H...W_2")
    D = np.vstack([U_S.T @ K, np.array(basis).reshape(len(basis), d_1)])
    cond = np.linalg.cond(D)
    if not np.isfinite(cond) or cond > D_COND_LIMIT:
        raise IllConditioned(f"canonical D has condition number {cond:.3g}")
    return D, np.linalg.inv(D), K


def _complete_basis(cols: np.ndarray) -> np.ndarray:
    """Extend independent columns to an invertible matrix by appending an
    orthonormal basis of their orthogonal complement."""
    n, r = cols.shape
    if r == 0:
        return np.eye(n)
    Q, R = np.linalg.qr(cols, mode="complete")
    diag = np.abs(np.diag(R[:r, :r]))
    if np.any(diag < 1e-12 * max(1.0, np.linalg.norm(cols))):
        raise DegenerateBasis("columns to complete are numerically dependent")
    return np.hstack([cols, Q[:, r:]])


def _simplif_first(A, B, U_S):
    """Given A B = [U_S, 0], produce D with A D = [U_S, U_Q N] and
    D^{-1} B = [[I_r, 0], [0, *]]."""
    r = U_S.shape[1]
    E = _complete_basis(B[:, :r])
    F_inv = np.eye(A.shape[1])
    F_inv[:r, r:] = -U_S.T @ (A @ E[:, r:])
    return E @ F_inv


def _simplif_step(B, C, r):
    """Given B C = [[I_r, 0], [0, P]], produce D with
    B D = [[I_r, 0], [0, Z]] and D^{-1} C of the same form."""
    E = _complete_basis(C[:, :r])
    F = np.eye(B.shape[1])
    F[:r, r:] = -(B @ E)[:r, r:]
    return E @ F


def _canonical_blocks(w: Weights, bundle: SigmaBundle, support, norm_w: float, error):
    """The blocks Z_1..Z_H of weights in canonical form for ``support``,

        W_H = [U_S, U_Q Z_H],  W_h = [[I_r, 0], [0, Z_h]],  W_1 = [U_S^T C; Z_1],
        W_H..W_2 = [U_S, 0],   C = Sigma_YX Sigma_XX^{-1},

    and the tolerance EPS_CANON (1 + norm_w + ||C||) of these equations,
    norm_w the Frobenius norm of the weights the point came from.  Raises
    ``error`` when a residual exceeds it."""
    r = len(support)
    U_S, U_Q = bundle.u_cols(support), bundle.u_complement(support)
    C = bundle.sigma_yx_sigma_xx_inv()
    W = w.layers
    z = [W[0][r:, :]] + [Wh[r:, r:] for Wh in W[1:-1]] + [U_Q.T @ W[-1][:, r:]]
    K = partial_suffix(w, 2)
    errs = [
        np.linalg.norm(W[0][:r, :] - U_S.T @ C),
        np.linalg.norm(W[-1] - np.hstack([U_S, U_Q @ z[-1]])),
        np.linalg.norm(K - np.hstack([U_S, np.zeros((K.shape[0], K.shape[1] - r))])),
    ]
    for Wh, Z in zip(W[1:-1], z[1:-1]):
        B = np.zeros_like(Wh)
        B[:r, :r] = np.eye(r)
        B[r:, r:] = Z
        errs.append(np.linalg.norm(Wh - B))
    tol = EPS_CANON * (1.0 + norm_w + np.linalg.norm(C))
    if max(errs) > tol:
        raise error(f"canonical residual {max(errs):.3g} exceeds tolerance {tol:.3g}")
    return z, tol


def canonical_form(
    w: Weights,
    bundle: SigmaBundle,
    rank_tol: RankTolerance = RankTolerance(),
    tau_crit: float | None = None,
) -> CriticalPointSpec:
    """Recover a (S, Z, D) spec whose rebuild reproduces the global map.

    The recovered spec carries certified=False when it falls outside the
    certified sufficient condition (r < r_max with fewer than two zero Z
    blocks) -- the necessary-form recovery still holds in that case.
    """
    shape = w.shape
    H = shape.H
    sup = associated_support(w, bundle, tau_crit=tau_crit, rank_tol=rank_tol)
    S = sup.support
    r = len(S)

    # The rank cut of W_H..W_2 uses the same product-rounding floor as
    # classify, so that a point classify accepted is not rejected here.
    _, D1, _ = clem_d_matrix(w, bundle, S, product_rank_tolerance(w, rank_tol))

    d_list = [D1] + [None] * (H - 2)  # D_1 .. D_{H-1}
    if H > 2:
        # Peel W_H, then walk down the hidden layers.
        d_list[H - 2] = _simplif_first(
            w.layer(H), partial_middle(w, H, 1) @ D1, bundle.u_cols(S)
        )
        for h in range(H - 1, 2, -1):
            Bm = np.linalg.solve(d_list[h - 1], w.layer(h))
            d_list[h - 2] = _simplif_step(Bm, partial_middle(w, h, 1) @ D1, r)
    z_list, tol = _canonical_blocks(
        transform_weights(w, d_list), bundle, S, w.frob_norm(), DegenerateBasis
    )

    # Snap numerically-zero blocks to exact zeros before certifying.
    z_final = tuple(
        np.zeros_like(Z) if Z.size == 0 or np.linalg.norm(Z) <= tol else Z.copy()
        for Z in z_list
    )
    spec = CriticalPointSpec(
        support=S, z_blocks=z_final, d_blocks=tuple(d_list), certified=True
    )
    if not spec.is_certified_critical(shape.r_max):
        spec = replace(spec, certified=False)
    return spec


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

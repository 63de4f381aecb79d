"""Pivot analysis and the three-way classification of critical points.

A pivot (i, j) with 1 <= j < i <= H pairs the data-weighted outer block
W_{j-1}..W_1 Sigma_XY W_H..W_{i+1} with the inner block W_{i-1}..W_{j+1}.
At a critical point of rank r both blocks have rank >= r; the pivot is
tightened when both ranks equal r.  A rank-deficient critical point with
support [1, r] is a non-strict saddle exactly when every pivot is tightened;
in every other case a certified negative-curvature witness exists.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .critical_points import SupportResult, associated_support, critical_value
from .curvature import CurvatureCache, WitnessCase, witness_eigenswap, witness_untightened
from .data_model import DataMatrices, SigmaBundle
from .errors import (
    InternalInconsistency,
    InvalidPivot,
    NotApplicable,
)
from .network import (
    Weights,
    global_map,
    gradient,
    partial_middle,
    partial_prefix,
    partial_suffix,
)
from .ranktol import (  # RankTolerance and numeric_rank are re-exported
    EPS_WITNESS,
    TAU_CRIT_REL,
    RankTolerance,
    criticality_scale,
    numeric_rank,
    product_rank_tolerance,
)

__all__ = [
    "RankTolerance",
    "numeric_rank",
    "Pivot",
    "pivot_blocks",
    "analyze_pivot",
    "all_pivots",
    "is_tightened",
    "Classification",
    "classify",
    "classification_to_json",
]

GLOBAL_MINIMIZER = "global_minimizer"
STRICT_SADDLE = "strict_saddle"
NON_STRICT_SADDLE = "non_strict_saddle"
NOT_CRITICAL = "not_critical"


@dataclass(frozen=True)
class Pivot:
    i: int
    j: int
    rank1: int  # rank of W_{j-1}..W_1 Sigma_XY W_H..W_{i+1}
    rank2: int  # rank of W_{i-1}..W_{j+1}
    tightened: bool


def _block1(w: Weights, bundle: SigmaBundle, i: int, j: int) -> np.ndarray:
    """W_{j-1}..W_1 Sigma_XY W_H..W_{i+1}."""
    return partial_prefix(w, j - 1) @ bundle.sigma_xy @ partial_suffix(w, i + 1)


def pivot_blocks(w: Weights, bundle: SigmaBundle, i: int, j: int):
    """The two matrices whose ranks define pivot (i, j)."""
    H = w.shape.H
    if not (1 <= j < i <= H):
        raise InvalidPivot(f"need 1 <= j < i <= {H}, got ({i}, {j})")
    return _block1(w, bundle, i, j), partial_middle(w, i, j)


def _check_certified(p: Pivot, r: int) -> Pivot:
    if min(p.rank1, p.rank2) < r:
        raise InternalInconsistency(
            f"pivot ({p.i}, {p.j}) rank {min(p.rank1, p.rank2)} < r = {r} "
            "at a certified critical point"
        )
    return p


def analyze_pivot(
    w: Weights,
    bundle: SigmaBundle,
    i: int,
    j: int,
    r: int,
    rank_tol: RankTolerance = RankTolerance(),
    certified: bool = False,
    blocks: tuple | None = None,
) -> Pivot:
    """Ranks of pivot (i, j); ``blocks`` is its ``pivot_blocks`` pair if the
    caller has already formed it."""
    b1, b2 = pivot_blocks(w, bundle, i, j) if blocks is None else blocks
    rank1 = numeric_rank(b1, rank_tol)
    rank2 = numeric_rank(b2, rank_tol)
    p = Pivot(i=i, j=j, rank1=rank1, rank2=rank2, tightened=(min(rank1, rank2) == r))
    return _check_certified(p, r) if certified else p


def all_pivots(
    w: Weights,
    bundle: SigmaBundle,
    r: int,
    rank_tol: RankTolerance = RankTolerance(),
    certified: bool = False,
):
    """All H(H-1)/2 pivots in (i ascending, j ascending) order.  For each j
    the middle products W_{i-1}..W_{j+1} are built by walking i upward, one
    layer product per pivot, in the order ``partial_middle`` multiplies."""
    found = {}
    for j in range(1, w.shape.H):
        middle = np.eye(w.shape.dims[j])
        for i in range(j + 1, w.shape.H + 1):
            blocks = (_block1(w, bundle, i, j), middle)
            found[i, j] = analyze_pivot(w, bundle, i, j, r, rank_tol, blocks=blocks)
            middle = w.layer(i) @ middle
    pivots = [found[key] for key in sorted(found)]
    return [_check_certified(p, r) for p in pivots] if certified else pivots


def is_tightened(
    w: Weights,
    bundle: SigmaBundle,
    r: int,
    rank_tol: RankTolerance = RankTolerance(),
    certified: bool = False,
):
    """Whether every pivot is tightened, plus the full pivot report."""
    pivots = all_pivots(w, bundle, r, rank_tol, certified)
    return all(p.tightened for p in pivots), pivots


@dataclass(frozen=True)
class Classification:
    verdict: str
    support: tuple | None
    r: int | None
    critical_value: float | None
    pivots: list = field(default_factory=list)
    witness: WitnessCase | None = None
    witness_c2: float | None = None
    approximate: bool = False
    grad_norm: float = float("nan")


def classify(
    w: Weights,
    bundle: SigmaBundle,
    data: DataMatrices,
    rank_tol: RankTolerance = RankTolerance(),
    tau_crit: float | None = None,
) -> Classification:
    """Decide global minimizer / strict saddle / non-strict saddle.

    Strict-saddle verdicts always carry a validated witness direction whose
    measured c2 is certified negative.  Gradient norms up to 100x the
    criticality tolerance are classified with the approximate flag set;
    beyond that the verdict is not_critical.
    """
    gn = gradient(w, bundle).frob_norm()
    scale = criticality_scale(w, bundle)
    tau = TAU_CRIT_REL * scale if tau_crit is None else tau_crit
    if gn > 100.0 * tau:
        return Classification(
            verdict=NOT_CRITICAL, support=None, r=None, critical_value=None,
            grad_norm=gn,
        )

    # The support recovery and every later rank decision share one
    # tolerance floored at the rounding error of the layer products.
    rank_tol = product_rank_tolerance(w, rank_tol)
    sup: SupportResult = associated_support(
        w, bundle, tau_crit=tau, _gate=(gn, scale, rank_tol)
    )
    S = sup.support
    if sup.approximate:
        # Rank decisions must not count noise-level singular values: loosen
        # the cutoff to the measured gradient level, mirroring the support
        # recovery above.
        rank_tol = RankTolerance(
            absolute=rank_tol.absolute, relative=10.0 * gn / scale
        )
    r = numeric_rank(global_map(w), rank_tol)
    if r != len(S):
        raise InternalInconsistency(
            f"global map rank {r} disagrees with support size {len(S)}"
        )
    value = critical_value(S, bundle)
    r_max = w.shape.r_max
    leading = tuple(range(1, r + 1))

    def finish(verdict, pivots=(), witness=None, witness_c2=None):
        return Classification(
            verdict=verdict, support=S, r=r, critical_value=value,
            pivots=list(pivots), witness=witness, witness_c2=witness_c2,
            approximate=sup.approximate, grad_norm=gn,
        )

    def validated(wit: WitnessCase) -> float:
        # c2 = ||A_1||^2 + 2 <A_2, R> must be negative by more than the
        # relative rounding of its own two terms, so the threshold has the
        # units of c2 whatever the scale of X and Y.
        quad, cross = CurvatureCache(w, data).c2_terms(wit.direction)
        c2 = quad + cross
        thr = -EPS_WITNESS * (quad + abs(cross))
        if not (c2 < thr):
            raise InternalInconsistency(
                f"witness c2 = {c2:.3g} is not certifiably negative "
                f"(threshold {thr:.3g})"
            )
        return c2

    if r == r_max:
        if S == leading:
            return finish(GLOBAL_MINIMIZER)
        wit = witness_eigenswap(w, bundle, S, rank_tol)
        return finish(STRICT_SADDLE, witness=wit, witness_c2=validated(wit))

    if S != leading:
        wit = witness_eigenswap(w, bundle, S, rank_tol)
        return finish(STRICT_SADDLE, witness=wit, witness_c2=validated(wit))

    tight, pivots = is_tightened(w, bundle, r, rank_tol, certified=True)
    if tight:
        return finish(NON_STRICT_SADDLE, pivots=pivots)

    last_err = None
    for p in pivots:
        if p.tightened:
            continue
        try:
            wit = witness_untightened(w, bundle, data, S, (p.i, p.j), rank_tol)
            return finish(STRICT_SADDLE, pivots=pivots, witness=wit,
                          witness_c2=validated(wit))
        except NotApplicable as err:
            last_err = err
    raise InternalInconsistency(
        f"untightened point but every pivot witness failed (last: {last_err})"
    )


def classification_to_json(c: Classification) -> str:
    wit = None
    if c.witness is not None:
        wit = {
            "case": c.witness.case,
            "pivot": list(c.witness.pivot) if c.witness.pivot else None,
            "c2_predicted": c.witness.c2_predicted,
            "c2_measured": c.witness_c2,
            "direction": [M.tolist() for M in c.witness.direction.layers],
        }
    return json.dumps(
        {
            "verdict": c.verdict,
            "support": None if c.support is None else list(c.support),
            "r": c.r,
            "critical_value": c.critical_value,
            "pivots": [
                {"i": p.i, "j": p.j, "rank1": p.rank1, "rank2": p.rank2,
                 "tightened": p.tightened}
                for p in c.pivots
            ],
            "witness": wit,
            "approximate": c.approximate,
            "grad_norm": c.grad_norm,
        }
    )

"""Pivot analysis and the three-way classification of critical points.

A pivot (i, j) with 1 <= j < i <= H pairs the data-weighted outer block
W_{j-1}..W_1 Sigma_XY W_H..W_{i+1} with the middle block W_{i-1}..W_{j+1}.
At a critical point of rank r both blocks have rank >= r; the pivot is
tightened when the smaller rank equals r.  A rank-deficient critical point
with support [1, r] is a non-strict saddle exactly when every pivot is
tightened; in every other case a certified negative-curvature witness exists.

More layers never raise a rank, so ``PivotStaircase`` finds the first
untightened pivot with ``critical_points.staircase``, a block being live when
its rank exceeds r.  It cuts each block at the ``chain_floor`` of its own
factors: the middle block at that of its layers, the outer block at that of
Sigma_XY and its layers, so that its rank does not depend on the units of X
and Y.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .critical_points import (_gradient_level, _recovered_support, associated_support,
                              critical_value, staircase)
from .curvature import CurvatureCache, WitnessCase, witness_eigenswap, witness_untightened
from .data_model import DataMatrices, SigmaBundle
from .errors import InternalInconsistency, NotApplicable
# Not called here: perfbench's tracer test reads the binding classifier.gradient.
from .network import Weights, global_map, gradient, partial_middle, partial_prefix, partial_suffix
from .ranktol import (  # RankTolerance and numeric_rank are re-exported
    RankTolerance,
    criticality_tol,
    floored,
    numeric_rank,
)

__all__ = [
    "RankTolerance",
    "numeric_rank",
    "Pivot",
    "analyze_pivot",
    "PivotStaircase",
    "Classification",
    "classify",
    "classification_to_json",
]

GLOBAL_MINIMIZER = "global_minimizer"
STRICT_SADDLE = "strict_saddle"
NON_STRICT_SADDLE = "non_strict_saddle"
NOT_CRITICAL = "not_critical"


@dataclass(frozen=True, order=True)
class Pivot:
    i: int
    j: int
    rank1: int  # rank of W_{j-1}..W_1 Sigma_XY W_H..W_{i+1}
    rank2: int  # rank of W_{i-1}..W_{j+1}
    tightened: bool


def analyze_pivot(i: int, j: int, r: int, blocks: tuple, tols: tuple) -> Pivot:
    """The ranks of pivot (i, j) from its two blocks, (outer, middle), each
    cut with its tolerance in ``tols``.  The middle block of an adjacent
    pivot (i = j + 1) is the empty product I_{d_j}: every singular value is
    1, so it is ranked in closed form, without an SVD or ``rank_cut``.  At
    a critical point of rank r neither rank is below r, so a smaller one
    means a wrong point or cut."""
    rank1, d = numeric_rank(blocks[0], tols[0]), blocks[1].shape[0]
    rank2 = ((d if tols[1].threshold((d, d), 1.0) < 1.0 else 0) if i == j + 1
             else numeric_rank(blocks[1], tols[1]))
    if min(rank1, rank2) < r:
        raise InternalInconsistency(
            f"pivot ({i}, {j}) rank {min(rank1, rank2)} < r = {r} at a critical point"
        )
    return Pivot(i=i, j=j, rank1=rank1, rank2=rank2, tightened=(min(rank1, rank2) == r))


class PivotStaircase:
    """The pivots of a critical point of rank r < r_max, cut along the
    staircase: ``first`` is the first untightened pivot in (i, j) order, or
    None; ``cut`` holds the pivots cut so far, which sort in (i, j) order.
    Two cuts whose ranks break the monotonicity raise InternalInconsistency."""

    def __init__(self, w: Weights, bundle: SigmaBundle, r: int,
                 rank_tol: RankTolerance = RankTolerance()):
        self.w, self.bundle, self.r, self.rank_tol = w, bundle, r, rank_tol
        self.cut = {}
        first = staircase(w.layers, lambda i, j, mid: self.pivot(i, j, mid).rank2 > r,
                          lambda i, j: self.pivot(i, j).rank1 > r)
        self.first = None if first is None else self.cut[first]

    def pivot(self, i: int, j: int, middle: np.ndarray | None = None) -> Pivot:
        """Pivot (i, j); ``middle`` is W_{i-1}..W_{j+1} if already formed."""
        if (i, j) not in self.cut:
            w, r = self.w, self.r
            outer = partial_prefix(w, j - 1) @ self.bundle.sigma_xy @ partial_suffix(w, i + 1)
            middle = partial_middle(w, i, j) if middle is None else middle
            H, n = w.shape.H, w.layer_norms()
            tols = (floored(self.rank_tol, H, [self.bundle.sigma_xy_norm, *n[:j - 1], *n[i:]]),
                    floored(self.rank_tol, H, n[j:i - 1]))
            p = analyze_pivot(i, j, r, (outer, middle), tols)
            for q in self.cut.values():
                hi, lo = (q, p) if q.i >= p.i and q.j <= p.j else (p, q)  # hi: more middle layers
                if hi.i >= lo.i and hi.j <= lo.j and (hi.rank2 > r == lo.rank2
                                                      or lo.rank1 > r == hi.rank1):
                    raise InternalInconsistency(f"pivot ranks not monotone: {hi}, {lo}, r = {r}")
            self.cut[i, j] = p
        return self.cut[i, j]


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
    beyond that the verdict is not_critical.  ``data`` is not read.  The
    gradient level and an exact support recovery stay in ``w``'s analysis
    record, for ``canonical_form`` with equal bundle object, rank_tol and tau.
    """
    gn, scale = _gradient_level(w, bundle)
    tau = criticality_tol(tau_crit, scale)
    if gn > 100.0 * tau:
        return Classification(
            verdict=NOT_CRITICAL, support=None, r=None, critical_value=None,
            grad_norm=gn,
        )

    # Every rank cut floors rank_tol at the chain_floor of its own factors.
    sup = (associated_support(w, bundle, tau, rank_tol) if gn <= tau
           else _recovered_support(w, bundle, rank_tol, tau))
    S = sup.support
    if sup.approximate:
        # Rank decisions must not count noise-level singular values: loosen
        # the cutoff to the measured gradient level, mirroring the support
        # recovery above, but never below the caller's own cutoff.
        relative = max(rank_tol.relative or 0.0, 10.0 * gn / scale)
        rank_tol = RankTolerance(absolute=rank_tol.absolute, relative=relative)
    r = numeric_rank(global_map(w), floored(rank_tol, w.shape.H, w.layer_norms()))
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
            pivots=sorted(pivots), witness=witness, witness_c2=witness_c2,
            approximate=sup.approximate, grad_norm=gn,
        )

    def validated(wit: WitnessCase) -> float:
        # The eigenswap's exact c2 is lambda_j - lambda_i, past its rounding (``ranktol``).
        c2, thr = CurvatureCache(w, bundle).c2_threshold(wit.direction)
        exact = wit.case == "eigenswap" and c2 < 0.0 and abs(c2 - wit.c2_predicted) <= -thr
        if not (c2 < thr or exact):
            raise InternalInconsistency(
                f"witness c2 = {c2:.3g} is not certifiably negative "
                f"(threshold {thr:.3g}, predicted {wit.c2_predicted:.3g})"
            )
        return c2

    if r == r_max and S == leading:
        return finish(GLOBAL_MINIMIZER)
    if r == r_max or S != leading:
        wit = witness_eigenswap(w, bundle, S)
        return finish(STRICT_SADDLE, witness=wit, witness_c2=validated(wit))

    stairs = PivotStaircase(w, bundle, r, rank_tol)
    if stairs.first is None:
        return finish(NON_STRICT_SADDLE, pivots=stairs.cut.values())

    # At the first untightened pivot T, N and W_{i-1}..W_{j+1} N are not zero,
    # and the earlier pivot (j, 1) is tightened: no reason to refuse remains.
    pivot = (stairs.first.i, stairs.first.j)
    try:
        wit = witness_untightened(w, bundle, S, pivot, rank_tol)
    except NotApplicable as err:
        raise InternalInconsistency(f"no witness at the untightened pivot {pivot}: {err}") from err
    return finish(STRICT_SADDLE, pivots=stairs.cut.values(), witness=wit,
                  witness_c2=validated(wit))


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
            "pivots": [asdict(p) for p in c.pivots],
            "witness": wit,
            "approximate": c.approximate,
            "grad_norm": c.grad_norm,
        }
    )

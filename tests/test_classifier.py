import collections
import itertools
import json
import sys
from dataclasses import replace

import numpy as np
import pytest

import linsaddle as ls
import linsaddle.classifier as classifier
import linsaddle.curvature as curvature
import linsaddle.data_model as data_model
from linsaddle.classifier import classification_to_json
from linsaddle.critical_points import (
    CriticalPointSpec,
    _canonical_blocks,
    _ZChains,
    build_critical_point,
    z_block_shape,
)
from linsaddle.curvature import MAX_DENSE_PARAMS, CurvatureCache, _line_orders
from linsaddle.network import partial_suffix
from linsaddle.ranktol import TAU_CRIT_REL, criticality_scale, floored, spectral_norms

from conftest import masked_critical_spec, random_certified_spec, random_direction, random_weights
from oracles import all_pivots_sweep, spec_verdict


def test_witness_rejects_an_invalid_pivot(small_problem):
    data, b, shape = small_problem
    w = random_weights(shape, np.random.default_rng(0))
    with pytest.raises(ls.InvalidPivot):
        ls.witness_untightened(w, b, (1,), pivot=(1, 1))


def test_pivot_count_and_order(small_problem):
    _, b, shape = small_problem
    rng = np.random.default_rng(1)
    spec = random_certified_spec(shape, b.d_y, rng, support=(1, 2))
    w = build_critical_point(spec, b, shape)
    pivots = all_pivots_sweep(list(w.layers), b.sigma_xy, 2)
    H = shape.H
    assert len(pivots) == H * (H - 1) // 2
    assert [(p.i, p.j) for p in pivots] == [(2, 1), (3, 1), (3, 2)]
    for p in pivots:
        assert min(p.rank1, p.rank2) >= 2  # never below r at a critical point


def test_classify_global_minimizer(small_problem):
    data, b, shape = small_problem
    r = shape.r_max
    z = tuple(np.zeros(z_block_shape(shape, r, h)) for h in range(1, shape.H + 1))
    w = build_critical_point(
        CriticalPointSpec(support=tuple(range(1, r + 1)), z_blocks=z), b, shape
    )
    res = ls.classify(w, b, data)
    assert res.verdict == "global_minimizer"
    assert res.witness is None
    assert res.r == r


def test_classify_eigenswap_saddle(small_problem):
    data, b, shape = small_problem
    rng = np.random.default_rng(2)
    spec = random_certified_spec(shape, b.d_y, rng, support=(2, 4))
    w = build_critical_point(spec, b, shape)
    res = ls.classify(w, b, data)
    assert res.verdict == "strict_saddle"
    assert res.witness.case == "eigenswap"
    assert res.witness_c2 < 0


def test_classify_families(deep_problem):
    data, b, shape = deep_problem
    res = ls.classify(ls.build_example_family(2, "non_tightened", b, shape), b, data)
    assert res.verdict == "strict_saddle"
    assert res.witness.case.startswith("untightened")
    res = ls.classify(ls.build_example_family(2, "tightened", b, shape), b, data)
    assert res.verdict == "non_strict_saddle"
    assert all(p.tightened for p in res.pivots)


def test_classify_not_critical(small_problem):
    data, b, shape = small_problem
    w = random_weights(shape, np.random.default_rng(3))
    res = ls.classify(w, b, data)
    assert res.verdict == "not_critical"
    assert res.support is None


def _nudged(w, b, rng, level):
    """w moved along a Gaussian direction until its gradient norm is about
    `level` times the default criticality tolerance tau; returns (point, tau)."""
    tau = TAU_CRIT_REL * criticality_scale(w, b)
    noise = [rng.standard_normal(M.shape) for M in w.layers]
    s0 = 1e-8
    probe = ls.Weights([M + s0 * N for M, N in zip(w.layers, noise)], w.shape)
    rate = ls.gradient(probe, b).frob_norm() / s0  # gradient growth per unit step
    s = level * tau / rate
    return ls.Weights([M + s * N for M, N in zip(w.layers, noise)], w.shape), tau


def test_classify_approximate_flag(small_problem):
    data, b, shape = small_problem
    rng = np.random.default_rng(4)
    spec = random_certified_spec(shape, b.d_y, rng, support=(1, 2))
    w = build_critical_point(spec, b, shape)
    # nudge the point so the gradient lands between tau and 100 tau
    nudged, tau = _nudged(w, b, rng, 10)
    gn = ls.gradient(nudged, b).frob_norm()
    assert tau < gn < 100 * tau
    res = ls.classify(nudged, b, data)
    assert res.approximate
    assert res.verdict in ("strict_saddle", "non_strict_saddle", "global_minimizer")
    # The same point with its gradient at 300 tau is past the band.
    assert ls.classify(nudged, b, data, tau_crit=gn / 300).verdict == "not_critical"


@pytest.mark.parametrize("level", [0.5, 10.0])
def test_a_nudged_saddle_off_the_leading_support_keeps_its_eigenswap_witness(small_problem,
                                                                             level):
    # S = (2,) skips lambda_1, so the witness is the eigenswap, whose c2 is
    # lambda_j - lambda_i only at the exact point.  Nudged to a gradient norm
    # of `level` tau, the measured c2 leaves that value by far more than the
    # witness threshold, and is still certifiably negative.
    data, b, shape = small_problem
    rng = np.random.default_rng(4)
    w = build_critical_point(random_certified_spec(shape, b.d_y, rng, support=(2,)), b, shape)
    nudged, tau = _nudged(w, b, rng, level)
    gn = ls.gradient(nudged, b).frob_norm()
    assert tau < gn < 100 * tau if level > 1 else gn <= tau
    res = ls.classify(nudged, b, data)
    assert (res.verdict, res.support, res.approximate) == ("strict_saddle", (2,), level > 1)
    assert res.witness.case == "eigenswap" and res.witness_c2 < 0.0
    assert abs(res.witness_c2 - res.witness.c2_predicted) > 1e-7 * abs(res.witness.c2_predicted)


def test_h2_never_non_strict(shallow_problem):
    # with a single hidden layer every rank-deficient critical point is strict
    data, b, shape = shallow_problem
    rng = np.random.default_rng(5)
    seen = set()
    for k in range(30):
        spec = random_certified_spec(shape, b.d_y, rng)
        w = build_critical_point(spec, b, shape)
        res = ls.classify(w, b, data)
        seen.add(res.verdict)
        assert res.verdict != "non_strict_saddle"
    assert "strict_saddle" in seen and "global_minimizer" in seen


@pytest.mark.parametrize("seed", range(10))
def test_verdict_matches_hessian(deep_problem, seed):
    # dual route: the verdict must agree with the smallest Hessian eigenvalue
    data, b, shape = deep_problem
    rng = np.random.default_rng(100 + seed)
    spec = random_certified_spec(shape, b.d_y, rng)
    w = build_critical_point(spec, b, shape)
    res = ls.classify(w, b, data)
    lam = ls.hessian_min_eig(w, data)
    scale = (1.0 + w.sq_norm()) * float(np.sum(data.X * data.X))
    if res.verdict == "strict_saddle":
        assert lam < -1e-10 * scale
    else:
        assert lam > -1e-8 * scale


def test_witness_is_validated_against_measured_c2(deep_problem):
    data, b, shape = deep_problem
    w = ls.build_example_family(1, "non_tightened", b, shape)
    res = ls.classify(w, b, data)
    meas = ls.c2_value(w, res.witness.direction, data)
    assert meas == pytest.approx(res.witness_c2)
    assert meas == pytest.approx(res.witness.c2_predicted, rel=1e-6)


def _zero_z_point(data, dims, support):
    """The critical point with support `support`, zero Z blocks and identity
    D blocks on `data`, with its unit-scale classification."""
    shape = ls.NetworkShape(dims)
    b = ls.build_sigma_bundle(data)
    r = len(support)
    z = tuple(np.zeros(z_block_shape(shape, r, h)) for h in range(1, shape.H + 1))
    w = build_critical_point(CriticalPointSpec(support=support, z_blocks=z), b, shape)
    return data, shape, w, ls.classify(w, b, data)


# At these points the outer block of pivot (2, 1) is Sigma_XY itself, whose
# rank cut must not depend on the units of X and Y.
TWO_BY_TWO_SEEDS = (3, 5, 7, 9, 10)


@pytest.fixture(scope="module")
def rescaling_points():
    """On d_x=8, d_y=4, m=40 data, seed 3, widths (8, 6, 6, 6, 4): the
    support-(1, 3) eigenswap saddle, the tightened and non-tightened example
    points with r = 2 and the global minimizer; and the support-(1,) saddle
    with zero Z blocks on d_x=d_y=2, m=3 data, seeds 0, 3, 5, 7, 9 and 10,
    widths (2, 6, 2)."""
    data = ls.generate_gaussian_data(8, 4, 40, 3)
    dims = (8, 6, 6, 6, 4)
    shape = ls.NetworkShape(dims)
    b = ls.build_sigma_bundle(data)
    points = {
        "eigenswap": _zero_z_point(data, dims, (1, 3)),
        "global_minimizer": _zero_z_point(data, dims, (1, 2, 3, 4)),
        "two_by_two": _zero_z_point(ls.generate_gaussian_data(2, 2, 3, 0), (2, 6, 2), (1,)),
    }
    for seed in TWO_BY_TWO_SEEDS:
        points[f"two_by_two_{seed}"] = _zero_z_point(
            ls.generate_gaussian_data(2, 2, 3, seed), (2, 6, 2), (1,)
        )
    for variant in ("tightened", "non_tightened"):
        w = ls.build_example_family(2, variant, b, shape)
        points[variant] = (data, shape, w, ls.classify(w, b, data))
    return points


SCALES = [1e-6, 1e-3, 1.0, 1e3, 1e6]


@pytest.mark.parametrize("a", SCALES)
@pytest.mark.parametrize("b", SCALES)
def test_verdict_is_invariant_under_data_rescaling(rescaling_points, a, b):
    # X -> aX, Y -> bY, W_1 -> (b/a) W_1 maps critical points to critical
    # points with the same support and verdict; the witness c2 scales by b^2.
    # Rotating the input space on top, X -> QX and W_1 -> W_1 Q^T for an
    # orthogonal Q, changes neither, nor the witness c2.
    rng = np.random.default_rng(0)
    expected = {
        "eigenswap": ("strict_saddle", (1, 3)),
        "global_minimizer": ("global_minimizer", (1, 2, 3, 4)),
        "tightened": ("non_strict_saddle", (1, 2)),
        "non_tightened": ("strict_saddle", (1, 2)),
        "two_by_two": ("strict_saddle", (1,)),
    }
    expected.update({f"two_by_two_{s}": ("strict_saddle", (1,)) for s in TWO_BY_TWO_SEEDS})
    for name, (data, shape, w, unit) in rescaling_points.items():
        assert (unit.verdict, unit.support) == expected[name]
        scaled = ls.DataMatrices(data.X * a, data.Y * b)
        ws = ls.Weights([w.layer(1) * (b / a)] + list(w.layers[1:]), shape)
        res = ls.classify(ws, ls.build_sigma_bundle(scaled), scaled)
        assert (res.verdict, res.support) == expected[name], name
        if name == "eigenswap":
            assert res.witness_c2 == pytest.approx(unit.witness_c2 * b * b, rel=1e-8)
        Q = np.linalg.qr(rng.standard_normal((data.d_x,) * 2))[0]
        rotated = ls.DataMatrices(Q @ scaled.X, scaled.Y)
        wr = ls.Weights([ws.layer(1) @ Q.T] + list(ws.layers[1:]), shape)
        rot = ls.classify(wr, ls.build_sigma_bundle(rotated), rotated)
        assert (rot.verdict, rot.support) == expected[name], name
        assert (rot.witness_c2 is None) == (res.witness_c2 is None), name
        if res.witness_c2 is not None:
            assert rot.witness_c2 == pytest.approx(res.witness_c2, rel=1e-10), name


@pytest.mark.parametrize("seed", [0, 1])
def test_verdict_and_curvature_are_invariant_under_sample_permutation(rescaling_points, seed):
    # The loss and everything derived from it depend on the samples only
    # through their second moments, which permuting the columns of X and Y
    # changes by rounding alone.
    rng = np.random.default_rng(seed)
    for name, (data, shape, w, unit) in rescaling_points.items():
        perm = rng.permutation(data.m)
        permuted = ls.DataMatrices(data.X[:, perm], data.Y[:, perm])
        b, bp = ls.build_sigma_bundle(data), ls.build_sigma_bundle(permuted)
        res = ls.classify(w, bp, permuted)
        assert (res.verdict, res.support) == (unit.verdict, unit.support), name
        assert ls.loss(w, bp) == pytest.approx(ls.loss(w, b), rel=1e-10)
        for _ in range(2):
            v = random_direction(shape, rng)
            assert ls.c2_value(w, v, permuted) == pytest.approx(ls.c2_value(w, v, data), rel=1e-10)
        # lambda_min is 0 at non-strict saddles, so it is compared in the
        # units of the Hessian's largest eigenvalue.
        scale = np.linalg.norm(ls.hessian_dense(w, data), 2)
        lam = ls.hessian_min_eig(w, data, mode="probe")
        assert abs(ls.hessian_min_eig(w, permuted, mode="probe") - lam) <= 1e-10 * scale, name


def test_classify_forms_the_gradient_and_the_rank_floor_once(rescaling_points, monkeypatch):
    # classify forms its gradient norm once, in the analysis record that the
    # support recovery reads, and takes the layers' spectral norms, which
    # floor every rank cut it makes, in one batched call: only the calls of
    # spectral_norms on the layers of the weights count.
    calls, layers = {}, []

    def counting(name, fn):
        def counted(*args, **kwargs):
            if name == "gradient" or args[0] is layers[0]:
                calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        return counted

    originals = (ls.gradient, spectral_norms)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("linsaddle"):
            for fn in originals:
                if getattr(mod, fn.__name__, None) is fn:
                    monkeypatch.setattr(mod, fn.__name__, counting(fn.__name__, fn))
    for name, (data, shape, w, unit) in rescaling_points.items():
        calls.clear()
        fresh = ls.Weights(w.layers, shape)
        layers[:] = [fresh.layers]
        res = ls.classify(fresh, ls.build_sigma_bundle(data), data)
        assert res.verdict == unit.verdict
        assert calls == {"gradient": 1, "spectral_norms": 1}, name


def test_classification_json(deep_problem):
    data, b, shape = deep_problem
    res = ls.classify(ls.build_example_family(2, "tightened", b, shape), b, data)
    obj = json.loads(classification_to_json(res))
    assert obj["verdict"] == "non_strict_saddle"
    assert obj["support"] == [1, 2]
    assert obj["r"] == 2
    assert {tuple(sorted(p)) for p in map(tuple, [[p["i"], p["j"]] for p in obj["pivots"]])}
    assert all(p["tightened"] for p in obj["pivots"])
    assert obj["witness"] is None
    assert obj["approximate"] is False


def _assert_staircase_agrees(w, b, r):
    """The staircase at a critical point of rank r against the full sweep:
    the same all-tightened decision, the same first untightened pivot in
    (i, j) order (None for neither) and the sweep's ranks at every pivot it
    cut."""
    sweep = {(p.i, p.j): p for p in all_pivots_sweep(list(w.layers), b.sigma_xy, r)}
    stairs = ls.PivotStaircase(w, b, r)
    first = None if stairs.first is None else (stairs.first.i, stairs.first.j)
    assert first == next((key for key in sorted(sweep) if not sweep[key].tightened), None)
    assert stairs.cut
    for key, p in stairs.cut.items():
        assert (p.i, p.j, p.rank1, p.rank2, p.tightened) == tuple(sweep[key]), key
    return stairs, sweep


def _assert_q_agrees(w, b, r, sweep):
    # The Z-chain indices against their rank definitions: p is the largest
    # h >= 3 with rank(W_H..W_h) = r, and q + 1 the first j whose outer block
    # at i = H has rank r.
    H = w.shape.H
    st = curvature._tightened(w, b)[0]
    norms = [np.linalg.norm(W, 2) for W in w.layers]
    assert st.p == next(h for h in range(H, 2, -1) if ls.numeric_rank(
        partial_suffix(w, h), floored(ls.RankTolerance(), H, norms[h - 1:])) == r)
    q = next(k for k in range(1, min(st.p - 1, H - 2) + 1) if sweep[H, k + 1].rank1 == r)
    assert st.q == q


def _z_chain_tests(w, b, r, monkeypatch):
    """The first untightened pivot that the Z-chain staircase finds at the
    canonical point w of support [1, r], and the zero tests it makes."""
    chains = _ZChains(_canonical_blocks(w, b, tuple(range(1, r + 1)), w.frob_norm(),
                                        ls.NeedsCanonicalization), b.sigma_xy @ b.U[:, r:])
    tests, zero = [], _ZChains.zero
    monkeypatch.setattr(_ZChains, "zero", lambda self, *a: tests.append(a) or zero(self, *a))
    return chains.untightened_pivot(), len(tests)


@pytest.mark.parametrize("variant", ["tightened", "non_tightened"])
def test_staircase_agrees_with_the_full_sweep_at_depth_16(variant, monkeypatch):
    data = ls.generate_gaussian_data(5, 4, 30, seed=21)
    b = ls.build_sigma_bundle(data)
    shape = ls.NetworkShape((5,) + (6,) * 15 + (4,))
    w = ls.build_example_family(2, variant, b, shape)
    stairs, sweep = _assert_staircase_agrees(w, b, 2)
    assert (stairs.first is None) == (variant == "tightened")
    H = shape.H
    assert len(stairs.cut) < 2 * H < len(sweep)
    if variant == "tightened":
        _assert_q_agrees(w, b, 2, sweep)
    # The example points are canonical, and the Z chains find the same first
    # untightened pivot in fewer than 2H zero tests.
    first, n_tests = _z_chain_tests(w, b, 2, monkeypatch)
    assert first == (None if stairs.first is None else (stairs.first.i, stairs.first.j))
    assert n_tests < 2 * H
    assert ls.classify(w, b, data).pivots == sorted(stairs.cut.values())


@pytest.mark.parametrize("H", [8, 16, 24])
def test_staircase_agrees_with_the_full_sweep_at_example_points(H):
    data = ls.generate_gaussian_data(20, 6, 60, seed=H)
    b = ls.build_sigma_bundle(data)
    shape = ls.NetworkShape((20,) * H + (6,))
    for interior in ("identity", "unit_corner"):
        for variant in ("tightened", "non_tightened"):
            w = ls.build_example_family(2, variant, b, shape, interior=interior)
            stairs, sweep = _assert_staircase_agrees(w, b, 2)
            assert (stairs.first is None) == (variant == "tightened")
            if variant == "tightened":
                _assert_q_agrees(w, b, 2, sweep)


def test_staircase_agrees_with_the_full_sweep_on_certify_points():
    # Leading supports with r < r_max, the only points whose verdict the
    # pivots decide; q is checked at the canonical point (D = I) of every
    # tightened spec of depth >= 3.
    rng = np.random.default_rng(60)
    data = ls.generate_gaussian_data(7, 4, 40, seed=61)
    b = ls.build_sigma_bundle(data)
    shapes = [(7, 5, 4), (7, 6, 5, 4), (7, 6, 5, 6, 5, 4)]
    counts = {}
    for dims in shapes:
        shape = ls.NetworkShape(dims)
        for _ in range(100):
            r = int(rng.integers(0, shape.r_max))
            spec = random_certified_spec(shape, b.d_y, rng, support=tuple(range(1, r + 1)))
            stairs, _ = _assert_staircase_agrees(build_critical_point(spec, b, shape), b, r)
            tightened = stairs.first is None
            counts[shape.H, tightened] = counts.get((shape.H, tightened), 0) + 1
            if tightened and shape.H >= 3:
                canonical = build_critical_point(replace(spec, d_blocks=None), b, shape)
                _, sweep = _assert_staircase_agrees(canonical, b, r)
                _assert_q_agrees(canonical, b, r, sweep)
    assert sum(counts.values()) == 300
    assert counts.get((2, True), 0) == 0  # H = 2 has no non-strict saddles
    assert counts[3, True] and counts[5, True] and counts[3, False] and counts[5, False]


def test_a_non_monotone_cut_is_an_internal_inconsistency(monkeypatch, deep_problem):
    # An outer rank that falls as i grows along a column contradicts the
    # rank the staircase has already read for the pivot below it.
    data, b, shape = deep_problem
    w = ls.build_example_family(2, "tightened", b, shape)

    def falling(i, j, r, blocks, tols):
        return ls.Pivot(i, j, r + 1 if i == j + 1 else r, r + 1, i != j + 1)

    monkeypatch.setattr(classifier, "analyze_pivot", falling)
    with pytest.raises(ls.InternalInconsistency, match="not monotone"):
        ls.classify(w, b, data)


def test_a_refused_witness_at_the_first_untightened_pivot_is_an_internal_inconsistency(
        monkeypatch, deep_problem):
    # With Z_2 = 0 and Z_4 Z_3 = 0 (Z_3 and Z_4 nonzero, masked) the point is
    # critical and the pivots (3, 2) and (4, 2) are untightened.  The witness
    # is built on the first one only: the construction has no reason to refuse
    # an untightened pivot, so a refusal there is a bug, not a cue to try the
    # next one.
    data, b, shape = deep_problem
    w = build_critical_point(masked_critical_spec(shape), b, shape)
    order = [(p.i, p.j) for p in all_pivots_sweep(list(w.layers), b.sigma_xy, 2)
             if not p.tightened]
    assert order == [(3, 2), (4, 2)]
    assert ls.classify(w, b, data).witness.pivot == order[0]
    witness, tried = classifier.witness_untightened, []

    def refuse_first(w, bundle, S, pivot, rank_tol):
        tried.append(pivot)
        if pivot == order[0]:
            raise ls.NotApplicable("refused")
        return witness(w, bundle, S, pivot, rank_tol)

    monkeypatch.setattr(classifier, "witness_untightened", refuse_first)
    with pytest.raises(ls.InternalInconsistency, match=r"pivot \(3, 2\): refused"):
        ls.classify(w, b, data)
    assert tried == [order[0]]


def test_a_witness_without_negative_curvature_is_an_internal_inconsistency(
        monkeypatch, deep_problem):
    # Along the zero direction c2 = 0, which is not below its threshold -0.
    data, b, shape = deep_problem
    w = ls.build_example_family(1, "non_tightened", b, shape)
    witness = classifier.witness_untightened

    def flat(*args):
        wit = witness(*args)
        return replace(wit, direction=ls.Direction([0.0 * M for M in wit.direction.layers], shape))

    monkeypatch.setattr(classifier, "witness_untightened", flat)
    with pytest.raises(ls.InternalInconsistency, match="not certifiably negative"):
        ls.classify(w, b, data)


def test_a_support_that_disagrees_with_the_map_rank_is_an_internal_inconsistency(
        monkeypatch, deep_problem):
    data, b, shape = deep_problem
    w = ls.build_example_family(2, "tightened", b, shape)
    support = classifier.associated_support

    def one_more(*args, **kwargs):
        sup = support(*args, **kwargs)
        return replace(sup, support=sup.support + (4,))

    monkeypatch.setattr(classifier, "associated_support", one_more)
    with pytest.raises(ls.InternalInconsistency, match="rank 2 disagrees with support size 3"):
        ls.classify(w, b, data)


def test_a_pivot_rank_below_r_is_an_internal_inconsistency():
    # At a critical point of rank r no pivot block has rank below r.
    tols = (ls.RankTolerance(),) * 2
    assert ls.analyze_pivot(3, 1, 1, (np.diag([1.0, 0.0]), np.eye(2)), tols).tightened
    with pytest.raises(ls.InternalInconsistency, match=r"pivot \(3, 1\) rank 1 < r = 2"):
        ls.analyze_pivot(3, 1, 2, (np.diag([1.0, 0.0]), np.eye(2)), tols)


@pytest.mark.parametrize("tol, full", [
    (ls.RankTolerance(), True),
    (ls.RankTolerance(absolute=1.0), False),
    (ls.RankTolerance(absolute=0.5, relative=0.4), True),
    (ls.RankTolerance(absolute=0.5, relative=0.5), False),
    (ls.RankTolerance(relative=1.0), False),
    (ls.RankTolerance(relative=2.0), False),
])
def test_an_adjacent_pivot_ranks_its_identity_middle_block_like_numeric_rank(
        tol, full, deep_problem):
    # The middle block of pivot (j + 1, j) is the empty product I_{d_j}, which
    # is ranked without an SVD: it must count what numeric_rank counts on the
    # identity, d_j below a threshold of 1 and 0 from 1 on.
    _, b, shape = deep_problem
    outer = b.sigma_xy
    for j in range(1, shape.H):
        d = shape.dims[j]
        want = ls.numeric_rank(np.eye(d), tol)
        assert want == (d if full else 0)
        rank1 = ls.numeric_rank(outer, tol)
        got = ls.analyze_pivot(j + 1, j, 0, (outer, np.eye(d)), (tol, tol))
        assert got == ls.Pivot(j + 1, j, rank1, want, min(rank1, want) == 0)
    # The staircase cuts each adjacent pivot at its own floored tolerance.
    # Layers of norm below 1 keep every rank monotone under an absolute cut.
    w = random_weights(shape, np.random.default_rng(5), scale=0.01)
    stairs = ls.PivotStaircase(w, b, 0, tol)
    adjacent = [p for (i, j), p in stairs.cut.items() if i == j + 1]
    assert adjacent
    for p in adjacent:
        eff = floored(tol, shape.H, [])
        assert p.rank2 == ls.numeric_rank(np.eye(shape.dims[p.j]), eff) == (
            shape.dims[p.j] if full else 0)


@pytest.mark.parametrize("c", [1e-13, 1e-9, 1e9, 1e13])
@pytest.mark.parametrize("h", [2, 3, 4])
@pytest.mark.parametrize("variant", ["tightened", "non_tightened"])
@pytest.mark.parametrize("r", [1, 2])
def test_verdict_is_invariant_under_rescaling_two_adjacent_layers(deep_problem, r, variant, h, c):
    # W_h -> c W_h, W_{h-1} -> W_{h-1} / c is the D-reparameterization with
    # D_{h-1} = I / c: the global map, the support and the verdict stay.  The
    # witness compares the inner image of its kernel with the norms of the
    # layers that form it, so no scale c makes it refuse a valid point.
    data, b, shape = deep_problem
    w = ls.build_example_family(r, variant, b, shape)
    unit = ls.classify(w, b, data)
    assert unit.verdict == ("non_strict_saddle" if variant == "tightened" else "strict_saddle")
    layers = list(w.layers)
    layers[h - 1], layers[h - 2] = c * layers[h - 1], layers[h - 2] / c
    res = ls.classify(ls.Weights(layers, shape), b, data)
    assert (res.verdict, res.support) == (unit.verdict, unit.support)


def test_classify_makes_no_moment_pass(rescaling_points, monkeypatch):
    # The witness is validated on the bundle's moments, not on a fresh pass
    # over the samples.
    calls = []
    moments = data_model._moments
    for mod in (data_model, curvature):
        monkeypatch.setattr(mod, "_moments", lambda d: calls.append(d) or moments(d))
    data, shape, w, unit = rescaling_points["non_tightened"]
    b = ls.build_sigma_bundle(data)
    calls.clear()
    res = ls.classify(w, b, data)
    assert res.verdict == unit.verdict == "strict_saddle"
    assert calls == []
    # The bundle's moments are the data's, so c2 is bitwise the same.
    assert res.witness_c2 == ls.c2_value(w, res.witness.direction, data)


def _census_draws(seed):
    """The census draws of a seed, in order: H = 2..5; d_x in 2..7, d_y in
    1..d_x and hidden widths in 1..7; r in 0..r_max with the support [1, r]
    or a random one, each half the time; every Z block Gaussian on a random
    subset of its rows and of its columns, so that products vanish while
    their factors do not; D_h = I + 0.2 N(0, 1); and X -> aX, Y -> bY with
    a, b in 10^U(-6, 6) and Z_1 scaled by b/a.  Draws whose data fail the
    standing assumption are skipped.  Yields (data, rescaled data, shape,
    spec of the rescaled data, a, b)."""
    rng = np.random.default_rng(seed)
    while True:
        H = int(rng.integers(2, 6))
        d_x = int(rng.integers(2, 8))
        d_y = int(rng.integers(1, d_x + 1))
        shape = ls.NetworkShape((d_x, *rng.integers(1, 8, size=H - 1).tolist(), d_y))
        data = ls.generate_gaussian_data(d_x, d_y, d_x + int(rng.integers(3, 15)),
                                         seed=int(rng.integers(2**31)))
        r = int(rng.integers(0, shape.r_max + 1))
        if rng.random() < 0.5:
            support = tuple(range(1, r + 1))
        else:
            support = tuple(sorted(rng.choice(np.arange(1, d_y + 1), size=r, replace=False).tolist()))
        z = []
        for h in range(1, H + 1):
            rows, cols = z_block_shape(shape, r, h)
            z.append(rng.standard_normal((rows, cols)) * (rng.random(rows) < 0.5)[:, None]
                     * (rng.random(cols) < 0.5))
        d = tuple(np.eye(k) + 0.2 * rng.standard_normal((k, k)) for k in shape.dims[1:-1])
        a, b = 10.0 ** rng.uniform(-6, 6, size=2)
        z[0] *= b / a
        if ls.check_assumption_h(data).holds:
            scaled = ls.DataMatrices(data.X * a, data.Y * b)
            yield data, scaled, shape, CriticalPointSpec(support, tuple(z), d), a, b


def _check_census_draw(data, scaled, shape, spec, a, b):
    """The census checks of one draw; returns the oracle's verdict, None
    when the spec is not critical."""
    bundle = ls.build_sigma_bundle(scaled)
    critical, verdict = spec_verdict(spec, bundle)
    if not critical:
        with pytest.raises(ls.NotCritical):
            build_critical_point(spec, bundle, shape)
        return None
    w = build_critical_point(spec, bundle, shape)
    res = ls.classify(w, bundle, scaled)
    assert (res.verdict, res.support, res.approximate) == (verdict, spec.support, False)
    canonical = ls.canonical_form(w, bundle)
    assert spec_verdict(canonical, bundle) == (True, verdict)
    assert canonical.support == spec.support
    build_critical_point(canonical, bundle, shape)  # the canonical spec passes the check
    r = spec.r
    if r < shape.r_max and spec.support == tuple(range(1, r + 1)):
        _assert_staircase_agrees(w, bundle, r)
        if shape.H >= 3:
            _check_census_certificate(canonical, bundle, shape, verdict, b / a)
    if shape.n_params <= MAX_DENSE_PARAMS:
        # The loss at the rescaled data is b^2 times the loss of the unit
        # point, whose W_1 is (a/b) times this one, so this congruence gives
        # back the unit point's Hessian.  Taken as it is, the rescaled
        # Hessian's blocks differ by up to (a/b)^2 = 1e24, and double
        # precision cannot resolve its smallest eigenvalue.
        j = np.ones(shape.n_params)
        j[:shape.dims[0] * shape.dims[1]] = b / a
        lam = np.linalg.eigvalsh(ls.hessian_dense(w, scaled) * np.outer(j, j) / b**2)[0]
        unit = ls.Weights([w.layer(1) * (a / b)] + list(w.layers[1:]), shape)
        scale = (1.0 + unit.sq_norm()) * float(np.sum(data.X * data.X))
        if verdict == "strict_saddle":
            assert lam < -1e-10 * scale
        else:
            assert abs(lam) <= 1e-12 * scale
    return verdict


def _check_census_certificate(canonical, bundle, shape, verdict, ratio):
    # The sum-of-squares certificate at the canonical point (D = I) along a
    # direction whose layer 1 scales like W_1: the point is refused at strict
    # draws, and at non-strict ones its c2 is the measured quad + cross to
    # the rounding of the two terms.  Where c2 = 0 the measured cross
    # 2 <A_2, E> can be nothing but the rounding of a zero A_2 (about 1e-16
    # at r = 0 draws, with quad = 0), so cross is held to 2 <|A_2|, |E|>,
    # with |A_2| the order-2 term of the line through |W| along |V|.
    w = build_critical_point(replace(canonical, d_blocks=None), bundle, shape)
    layers = random_direction(shape, np.random.default_rng(shape.n_params)).layers
    v = ls.Direction([layers[0] * ratio] + list(layers[1:]), shape)
    if verdict == "strict_saddle":
        with pytest.raises(ls.NotTightened):
            ls.ft_st_decomposition(w, v, bundle, None)
        return
    cache = CurvatureCache(w, bundle)
    c2 = cache.c2_threshold(v)[0]
    A1 = _line_orders(w, v, 2)[1]
    quad = float(np.sum((A1 @ bundle.sigma_xx) * A1))
    A2_abs = _line_orders(*(type(s)([np.abs(M) for M in s.layers], shape) for s in (w, v)), 2)[2]
    bound = quad + 2.0 * float(np.sum(A2_abs * np.abs(cache.E)))
    assert abs(ls.ft_st_decomposition(w, v, bundle, None).c2 - c2) <= 1e-8 * bound


def test_census_of_masked_specs():
    # The builder accepts exactly the specs that the Z products call
    # critical and also their canonical forms; on those classify, the
    # staircase and the dense Hessian agree with the Z products' verdict.
    counts = collections.Counter()
    for draw in itertools.islice(_census_draws(0), 300):
        counts[draw[2].H, _check_census_draw(*draw)] += 1
    assert sum(counts.values()) == 300
    assert sum(n for (H, v), n in counts.items() if v == "non_strict_saddle" and H == 2) == 0
    for verdict in (None, "global_minimizer", "strict_saddle", "non_strict_saddle"):
        assert sum(n for (H, v), n in counts.items() if v == verdict) >= 10, verdict


@pytest.mark.parametrize("seed, draw", [(10, 221), (12, 80), (23, 146)])
def test_census_draws_where_a_rounding_floor_failed(seed, draw):
    # Floors that held factors or norms their products do not hold failed
    # these draws.  At draws 221 of seed 10 (widths (6, 3, 5, 5, 4, 6),
    # S = (1, 5, 6)) and 80 of seed 12, with b/a near 2e-12, the global
    # map's cut at prod max(1, ||W_h||_2) found a rank below |S|.  At draw
    # 146 of seed 23, b/a = 4.4e11, the support's cut of K = W_H..W_2 counted
    # ||W_1|| and left the projector in its ambiguity band.
    _check_census_draw(*next(itertools.islice(_census_draws(seed), draw, None)))

import json
import sys

import numpy as np
import pytest

import linsaddle as ls
from linsaddle.classifier import all_pivots, analyze_pivot, classification_to_json, pivot_blocks
from linsaddle.critical_points import build_critical_point, z_block_shape, CriticalPointSpec

from conftest import random_certified_spec, random_weights


def test_pivot_block_conventions(small_problem):
    _, b, shape = small_problem
    rng = np.random.default_rng(0)
    w = random_weights(shape, rng)
    # adjacent pivot: inner block is the identity
    b1, b2 = pivot_blocks(w, b, 2, 1)
    assert np.array_equal(b2, np.eye(shape.dims[1]))
    assert np.allclose(b1, b.sigma_xy @ w.layer(3))
    # outermost pivot: data block is Sigma_XY itself
    b1, b2 = pivot_blocks(w, b, shape.H, 1)
    assert np.allclose(b1, b.sigma_xy)
    assert np.allclose(b2, w.layer(2))
    with pytest.raises(ls.InvalidPivot):
        pivot_blocks(w, b, 1, 1)


def test_pivot_count_and_order(small_problem):
    _, b, shape = small_problem
    rng = np.random.default_rng(1)
    spec = random_certified_spec(shape, b.d_y, rng, support=(1, 2))
    w = build_critical_point(spec, b, shape)
    pivots = ls.all_pivots(w, b, 2)
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


def test_classify_approximate_flag(small_problem):
    data, b, shape = small_problem
    rng = np.random.default_rng(4)
    spec = random_certified_spec(shape, b.d_y, rng, support=(1, 2))
    w = build_critical_point(spec, b, shape)
    # nudge the point so the gradient lands between tau and 100 tau
    from linsaddle.ranktol import criticality_scale, TAU_CRIT_REL

    tau = TAU_CRIT_REL * criticality_scale(w, b)
    noise = [rng.standard_normal(M.shape) for M in w.layers]
    s0 = 1e-8
    probe = ls.Weights([M + s0 * N for M, N in zip(w.layers, noise)], shape)
    rate = ls.gradient(probe, b).frob_norm() / s0  # gradient growth per unit step
    s = 10 * tau / rate
    nudged = ls.Weights([M + s * N for M, N in zip(w.layers, noise)], shape)
    gn = ls.gradient(nudged, b).frob_norm()
    assert tau < gn < 100 * tau
    res = ls.classify(nudged, b, data)
    assert res.approximate
    assert res.verdict in ("strict_saddle", "non_strict_saddle", "global_minimizer")


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


@pytest.fixture(scope="module")
def rescaling_points():
    """On d_x=8, d_y=4, m=40 data, seed 3, widths (8, 6, 6, 6, 4): the
    support-(1, 3) eigenswap saddle, the tightened and non-tightened example
    points with r = 2 and the global minimizer; and the support-(1,) saddle
    with zero Z blocks on d_x=d_y=2, m=3 data, seed 0, widths (2, 6, 2)."""
    data = ls.generate_gaussian_data(8, 4, 40, 3)
    dims = (8, 6, 6, 6, 4)
    shape = ls.NetworkShape(dims)
    b = ls.build_sigma_bundle(data)
    points = {
        "eigenswap": _zero_z_point(data, dims, (1, 3)),
        "global_minimizer": _zero_z_point(data, dims, (1, 2, 3, 4)),
        "two_by_two": _zero_z_point(ls.generate_gaussian_data(2, 2, 3, 0), (2, 6, 2), (1,)),
    }
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
    expected = {
        "eigenswap": ("strict_saddle", (1, 3)),
        "global_minimizer": ("global_minimizer", (1, 2, 3, 4)),
        "tightened": ("non_strict_saddle", (1, 2)),
        "non_tightened": ("strict_saddle", (1, 2)),
        "two_by_two": ("strict_saddle", (1,)),
    }
    for name, (data, shape, w, unit) in rescaling_points.items():
        assert (unit.verdict, unit.support) == expected[name]
        scaled = ls.DataMatrices(data.X * a, data.Y * b)
        ws = ls.Weights([w.layer(1) * (b / a)] + list(w.layers[1:]), shape)
        res = ls.classify(ws, ls.build_sigma_bundle(scaled), scaled)
        assert (res.verdict, res.support) == expected[name], name
        if name == "eigenswap":
            assert res.witness_c2 == pytest.approx(unit.witness_c2 * b * b, rel=1e-8)


def test_classify_forms_the_gradient_and_the_rank_floor_once(rescaling_points, monkeypatch):
    # classify hands its gradient norm and floored rank tolerance to the
    # support recovery rather than letting it form them again.
    from linsaddle.ranktol import product_rank_tolerance

    calls = {}

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        return counted

    originals = (ls.gradient, product_rank_tolerance)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("linsaddle"):
            for fn in originals:
                if getattr(mod, fn.__name__, None) is fn:
                    monkeypatch.setattr(mod, fn.__name__, counting(fn.__name__, fn))
    for name, (data, shape, w, unit) in rescaling_points.items():
        calls.clear()
        res = ls.classify(w, ls.build_sigma_bundle(data), data)
        assert res.verdict == unit.verdict
        assert calls == {"gradient": 1, "product_rank_tolerance": 1}, name


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


@pytest.mark.parametrize("variant", ["tightened", "non_tightened"])
def test_all_pivots_equals_each_pivot_alone_at_depth_16(variant):
    data = ls.generate_gaussian_data(5, 4, 30, seed=21)
    b = ls.build_sigma_bundle(data)
    shape = ls.NetworkShape((5,) + (6,) * 15 + (4,))
    w = ls.build_example_family(2, variant, b, shape)
    each = [
        analyze_pivot(w, b, i, j, 2)
        for i in range(2, shape.H + 1)
        for j in range(1, i)
    ]
    assert all_pivots(w, b, 2) == each
    assert all_pivots(w, b, 2, certified=True) == each
    for p in each[::17]:
        _, middle = pivot_blocks(w, b, p.i, p.j)
        walked = np.eye(shape.dims[p.j])
        for k in range(p.j + 1, p.i):
            walked = w.layer(k) @ walked
        assert np.array_equal(middle, walked)

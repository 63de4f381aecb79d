"""One test per acceptance criterion, at the stated tolerances and budgets.

The corpus fixture draws 200 random valid critical-point specs over random
shapes with depth H in {2, 3, 5} and widths in [1, 12]; it is shared by the
construction, spectral-agreement, witness and invariance criteria.
"""

import time

import numpy as np
import pytest

import linsaddle as ls
from linsaddle.critical_points import transform_weights
from linsaddle.ranktol import criticality_scale

from conftest import random_certified_spec, random_direction, random_weights
from oracles import line_loss


def witness_scale(w, data):
    return (1.0 + w.sq_norm()) * float(np.sum(data.X * data.X))


def _random_problem(rng):
    H = int(rng.choice([2, 3, 5]))
    d_x = int(rng.integers(2, 13))
    d_y = int(rng.integers(1, d_x + 1))
    hidden = [int(rng.integers(1, 13)) for _ in range(H - 1)]
    dims = tuple([d_x] + hidden + [d_y])
    m = d_x + int(rng.integers(3, 20))
    return dims, m


@pytest.fixture(scope="module")
def corpus():
    rng = np.random.default_rng(2024)
    t0 = time.monotonic()
    points = []
    while len(points) < 200:
        dims, m = _random_problem(rng)
        data = ls.generate_gaussian_data(dims[0], dims[-1], m, seed=len(points))
        if not ls.check_assumption_h(data).holds:
            continue
        bundle = ls.build_sigma_bundle(data)
        shape = ls.NetworkShape(dims)
        spec = random_certified_spec(shape, bundle.d_y, rng)
        w = ls.build_critical_point(spec, bundle, shape)
        points.append((data, bundle, shape, spec, w))
    return points, time.monotonic() - t0


def test_criterion_1_construction_soundness(corpus):
    points, build_time = corpus
    t0 = time.monotonic()
    for data, bundle, shape, spec, w in points:
        gn = ls.gradient(w, bundle).frob_norm()
        assert gn <= 1e-9 * criticality_scale(w, bundle)
        expect = ls.critical_value(spec.support, bundle)
        assert ls.loss(w, bundle, data) == pytest.approx(
            expect, rel=1e-8, abs=1e-8
        )
    assert build_time + (time.monotonic() - t0) < 60.0


def test_criterion_2_classifier_vs_spectrum(corpus):
    points, _ = corpus
    t0 = time.monotonic()
    checked = 0
    for data, bundle, shape, spec, w in points:
        if shape.n_params > 600:
            continue
        res = ls.classify(w, bundle, data)
        lam = ls.hessian_min_eig(w, data, mode="dense")
        s = witness_scale(w, data)
        value = ls.loss(w, bundle, data)
        minimum = ls.critical_value(tuple(range(1, shape.r_max + 1)), bundle)
        if res.verdict == "strict_saddle":
            assert lam < -1e-8 * s
        elif res.verdict == "non_strict_saddle":
            assert abs(lam) <= 1e-8 * s
            assert value > minimum + 1e-10
        else:
            assert res.verdict == "global_minimizer"
            assert lam >= -1e-8 * s
            assert value == pytest.approx(minimum, rel=1e-10)
        checked += 1
    assert checked > 50  # the corpus genuinely exercises this criterion
    assert time.monotonic() - t0 < 600.0


def test_criterion_3_witness_validity(corpus):
    points, _ = corpus
    n_strict = n_swap = 0
    for data, bundle, shape, spec, w in points:
        res = ls.classify(w, bundle, data)
        if res.verdict != "strict_saddle":
            continue
        n_strict += 1
        assert res.witness is not None
        assert res.witness_c2 < -1e-8 * witness_scale(w, data)
        if res.witness.case == "eigenswap":
            n_swap += 1
            i = res.witness.diagnostics["swap_in"]
            j = res.witness.diagnostics["swap_out"]
            exact = float(bundle.lambdas[j - 1] - bundle.lambdas[i - 1])
            assert res.witness_c2 == pytest.approx(exact, rel=1e-6)
    assert n_strict > 20 and n_swap > 10


def test_criterion_4_tightened_nonnegativity_and_identity():
    rng = np.random.default_rng(7)
    shapes = [(6, 5, 5, 4), (7, 6, 5, 6, 4), (8, 6, 6, 5), (9, 7, 6, 6, 5)]
    built = 0
    k = 0
    while built < 20:
        dims = shapes[built % len(shapes)]
        shape = ls.NetworkShape(dims)
        r = 1 + built % (shape.r_max - 1)
        data = ls.generate_gaussian_data(dims[0], dims[-1], dims[0] + 30, seed=k)
        k += 1
        bundle = ls.build_sigma_bundle(data)
        w = ls.build_example_family(r, "tightened", bundle, shape)
        s = witness_scale(w, data)
        for _ in range(200):
            v = random_direction(shape, rng)
            c2 = ls.c2_value(w, v, data)
            assert c2 >= -1e-9 * s
            dec = ls.ft_st_decomposition(w, v, bundle, data)
            assert dec.c2 == pytest.approx(c2, rel=1e-8, abs=1e-8 * s)
        built += 1


def test_criterion_5_invariance_and_h2(corpus):
    points, _ = corpus
    rng = np.random.default_rng(99)
    non_strict_h2 = 0
    def well_conditioned(n):
        # invertible with bounded conditioning, so the transformed weights
        # stay in the regime where the witness-validation scale is meaningful
        while True:
            D = np.eye(n) + 0.2 * rng.standard_normal((n, n))
            if np.linalg.cond(D) < 20.0:
                return D

    for data, bundle, shape, spec, w in points[:40]:
        base = ls.classify(w, bundle, data)
        for _ in range(20):
            d_list = [well_conditioned(shape.dims[h]) for h in range(1, shape.H)]
            wt = transform_weights(w, d_list)
            res = ls.classify(wt, bundle, data)
            assert res.verdict == base.verdict
            assert res.support == base.support
    for data, bundle, shape, spec, w in points:
        if shape.H != 2:
            continue
        if ls.classify(w, bundle, data).verdict == "non_strict_saddle":
            non_strict_h2 += 1
    assert non_strict_h2 == 0


def test_criterion_6_gradient_vs_finite_differences():
    rng = np.random.default_rng(6)
    data = ls.generate_gaussian_data(6, 4, 30, seed=11)
    bundle = ls.build_sigma_bundle(data)
    shape = ls.NetworkShape((6, 5, 5, 4))
    h = 1e-6
    for _ in range(50):
        w = random_weights(shape, rng, scale=0.5)
        v = random_direction(shape, rng)
        g = ls.gradient(w, bundle)
        inner = sum(float(np.sum(G * V)) for G, V in zip(g.layers, v.layers))
        lp = line_loss(list(w.layers), list(v.layers), data.X, data.Y, h)
        lm = line_loss(list(w.layers), list(v.layers), data.X, data.Y, -h)
        fd = (lp - lm) / (2 * h)
        assert fd == pytest.approx(inner, rel=1e-5, abs=1e-7)


def test_criterion_7_taylor_exactness():
    rng = np.random.default_rng(77)
    data = ls.generate_gaussian_data(7, 4, 40, seed=13)
    bundle = ls.build_sigma_bundle(data)
    shape = ls.NetworkShape((7, 6, 5, 6, 4))
    for _ in range(50):
        w = random_weights(shape, rng, scale=0.5)
        v = random_direction(shape, rng)
        tc = ls.taylor_coeffs(w, v, data)
        for t in rng.uniform(-1.0, 1.0, size=10):
            ref = line_loss(list(w.layers), list(v.layers), data.X, data.Y, t)
            assert tc.value(t) == pytest.approx(ref, rel=1e-9, abs=1e-12)


def test_criterion_8_escape_experiment_reproduction():
    t0 = time.monotonic()
    common = dict(dims=(10, 10, 10, 10, 10, 4), m=100, r=2,
                  n_runs=100, max_epochs=2000, data_seed=0)
    tight = ls.run_experiment(ls.ExperimentConfig(variant="tightened", **common))
    loose = ls.run_experiment(ls.ExperimentConfig(variant="non_tightened", **common))
    st = ls.summarize_runs(tight)
    sl = ls.summarize_runs(loose)
    assert sl["fraction_never_escaped"] <= 0.10
    assert sl["median_escape_epoch"] is not None
    assert st["median_escape_epoch"] is None or (
        st["median_escape_epoch"] >= 3.0 * sl["median_escape_epoch"]
    )
    assert time.monotonic() - t0 < 900.0


def test_criterion_9_plateau_enumeration():
    data = ls.generate_gaussian_data(8, 4, 40, seed=17)
    bundle = ls.build_sigma_bundle(data)
    shape = ls.NetworkShape((8, 6, 6, 4))
    entries = ls.enumerate_critical_values(bundle, shape)
    plateaus = [
        (S, v) for S, v, hint in entries if hint == "plateau"
    ]
    assert len(plateaus) == shape.r_max + 1
    assert sorted(S for S, _ in plateaus) == [
        tuple(range(1, r + 1)) for r in range(shape.r_max + 1)
    ]
    vals = [v for _, v in sorted(plateaus, key=lambda t: len(t[0]))]
    assert all(vals[k] > vals[k + 1] for k in range(len(vals) - 1))

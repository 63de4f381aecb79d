import json

import numpy as np
import pytest

import linsaddle as ls
from linsaddle.critical_points import (
    CriticalPointSpec,
    build_critical_point,
    canonical_form,
    clem_d_matrix,
    transform_weights,
    z_block_shape,
)
from linsaddle.network import partial_suffix
from linsaddle.ranktol import criticality_scale

from conftest import random_certified_spec, random_direction, random_weights


def grad_ok(w, bundle, tol=1e-9):
    return ls.gradient(w, bundle).frob_norm() <= tol * criticality_scale(w, bundle)


def test_build_global_minimizer(small_problem):
    data, b, shape = small_problem
    r = shape.r_max  # 4
    z = tuple(np.zeros(z_block_shape(shape, r, h)) for h in range(1, shape.H + 1))
    w = build_critical_point(
        CriticalPointSpec(support=tuple(range(1, r + 1)), z_blocks=z), b, shape
    )
    assert grad_ok(w, b)
    expect = float(np.trace(b.sigma_yy) - np.sum(b.lambdas))
    assert ls.loss(w, b, data) == pytest.approx(expect, rel=1e-10)


def test_build_empty_support(small_problem):
    data, b, shape = small_problem
    z = tuple(np.zeros(z_block_shape(shape, 0, h)) for h in range(1, shape.H + 1))
    w = build_critical_point(CriticalPointSpec(support=(), z_blocks=z), b, shape)
    assert np.allclose(ls.global_map(w), 0)
    assert ls.loss(w, b, data) == pytest.approx(float(np.trace(b.sigma_yy)))


def test_build_rejects_uncertified(small_problem):
    _, b, shape = small_problem
    r = 2
    z = []
    for h in range(1, shape.H + 1):
        Z = np.ones(z_block_shape(shape, r, h))  # no zero blocks
        z.append(Z)
    spec = CriticalPointSpec(support=(1, 2), z_blocks=tuple(z))
    with pytest.raises(ls.NotCertifiedCritical):
        build_critical_point(spec, b, shape)


def test_build_rejects_ill_conditioned_d(small_problem):
    _, b, shape = small_problem
    rng = np.random.default_rng(0)
    spec = random_certified_spec(shape, b.d_y, rng, support=(1, 2))
    bad = list(spec.d_blocks)
    bad[0] = np.diag([1.0] + [1e-12] * (shape.dims[1] - 1))
    from dataclasses import replace

    with pytest.raises(ls.IllConditioned):
        build_critical_point(replace(spec, d_blocks=tuple(bad)), b, shape)


def test_build_validates_block_shapes(small_problem):
    _, b, shape = small_problem
    z = tuple(np.zeros((1, 1)) for _ in range(shape.H))
    with pytest.raises(ls.InvalidShape):
        build_critical_point(CriticalPointSpec(support=(1,), z_blocks=z), b, shape)


@pytest.mark.parametrize("seed", range(8))
def test_random_certified_specs_are_critical(deep_problem, seed):
    data, b, shape = deep_problem
    rng = np.random.default_rng(seed)
    spec = random_certified_spec(shape, b.d_y, rng)
    w = build_critical_point(spec, b, shape)
    assert grad_ok(w, b)
    assert ls.loss(w, b, data) == pytest.approx(
        ls.critical_value(spec.support, b), rel=1e-8, abs=1e-8
    )


def test_associated_support_roundtrip(small_problem):
    _, b, shape = small_problem
    rng = np.random.default_rng(1)
    for S in [(), (1,), (1, 3), (2, 4), (1, 2, 3, 4)]:
        spec = random_certified_spec(shape, b.d_y, rng, support=S)
        w = build_critical_point(spec, b, shape)
        res = ls.associated_support(w, b)
        assert res.support == S
        assert res.residual < 1e-8
        assert not res.approximate


def test_associated_support_rejects_noncritical(small_problem):
    _, b, shape = small_problem
    w = random_weights(shape, np.random.default_rng(2))
    with pytest.raises(ls.NotCritical):
        ls.associated_support(w, b)


def test_example_families(deep_problem):
    data, b, shape = deep_problem
    for variant in ["tightened", "non_tightened"]:
        w = ls.build_example_family(2, variant, b, shape)
        assert grad_ok(w, b)
        assert ls.associated_support(w, b).support == (1, 2)
    with pytest.raises(ls.InvalidRank):
        ls.build_example_family(shape.r_max, "tightened", b, shape)


def test_example_family_identity_interior(deep_problem):
    data, b, shape = deep_problem
    w = ls.build_example_family(2, "non_tightened", b, shape, interior="identity")
    assert grad_ok(w, b)
    assert ls.classify(w, b, data).verdict == "strict_saddle"


def test_example_family_h2(shallow_problem):
    _, b, shape = shallow_problem
    with pytest.raises(ls.NoTightenedPointExists):
        ls.build_example_family(1, "tightened", b, shape)
    with pytest.raises(ls.InvalidShape):
        ls.build_example_family(1, "non_tightened", b, shape)


def test_critical_value_formula(small_problem):
    _, b, _ = small_problem
    tr = float(np.trace(b.sigma_yy))
    assert ls.critical_value((), b) == pytest.approx(tr)
    assert ls.critical_value((1, 3), b) == pytest.approx(
        tr - b.lambdas[0] - b.lambdas[2]
    )
    with pytest.raises(ls.InvalidRank):
        ls.critical_value((0,), b)
    with pytest.raises(ls.InvalidRank):
        ls.critical_value((1, 2, 3), b, ls.NetworkShape((6, 2, 4)))


def test_enumerate_critical_values(small_problem):
    _, b, shape = small_problem
    entries = ls.enumerate_critical_values(b, shape)
    # all subsets of [1,4] with size <= 4
    assert len(entries) == 16
    vals = [v for _, v, _ in entries]
    assert vals == sorted(vals)
    assert entries[0][0] == (1, 2, 3, 4)  # minimum uses all eigenvalues
    plateaus = [(S, v) for S, v, hint in entries if hint == "plateau"]
    assert len(plateaus) == shape.r_max + 1
    pv = [v for S, v in sorted(plateaus, key=lambda t: len(t[0]))]
    assert all(pv[k] > pv[k + 1] for k in range(len(pv) - 1))


def test_enumerate_guard():
    data = ls.generate_gaussian_data(25, 21, 40, seed=0)
    b = ls.build_sigma_bundle(data)
    with pytest.raises(ls.TooLarge):
        ls.enumerate_critical_values(b, ls.NetworkShape((25, 21, 21)))


def test_clem_matrix_factorization(small_problem):
    # W_H..W_2 = [U_S, 0] D with the bottom of D spanning ker(W_H..W_2)
    _, b, shape = small_problem
    rng = np.random.default_rng(3)
    spec = random_certified_spec(shape, b.d_y, rng, support=(1, 2))
    w = build_critical_point(spec, b, shape)
    D, D_inv, K = clem_d_matrix(w, b, (1, 2))
    U_S = b.u_cols((1, 2))
    stacked = np.hstack([U_S, np.zeros((b.d_y, shape.dims[1] - 2))])
    assert np.allclose(stacked @ D, K, atol=1e-8)
    assert np.allclose(D @ D_inv, np.eye(shape.dims[1]), atol=1e-8)
    assert np.allclose(K @ D_inv[:, 2:], 0, atol=1e-8)


def test_canonical_form_fixed_point(deep_problem):
    # identity-D spec in canonical position: recovery reproduces the Z blocks
    _, b, shape = deep_problem
    rng = np.random.default_rng(4)
    r = 2
    z = []
    for h in range(1, shape.H + 1):
        Z = np.zeros(z_block_shape(shape, r, h))
        if 2 <= h <= shape.H - 1:
            Z[:] = rng.standard_normal(Z.shape)
        z.append(Z)
    spec = CriticalPointSpec(support=(1, 2), z_blocks=tuple(z))
    w = build_critical_point(spec, b, shape)
    rec = canonical_form(w, b)
    assert rec.support == (1, 2)
    for Zin, Zout in zip(spec.z_blocks, rec.z_blocks):
        assert np.allclose(Zin, Zout, atol=1e-8)


@pytest.mark.parametrize("seed", range(6))
def test_canonical_form_roundtrip(deep_problem, seed):
    data, b, shape = deep_problem
    rng = np.random.default_rng(seed + 10)
    spec = random_certified_spec(shape, b.d_y, rng)
    w = build_critical_point(spec, b, shape)
    rec = canonical_form(w, b)
    assert rec.support == spec.support
    w2 = build_critical_point(rec, b, shape, require_certified=False)
    gm, gm2 = ls.global_map(w), ls.global_map(w2)
    assert np.linalg.norm(gm - gm2) <= 1e-8 * (1 + np.linalg.norm(gm))


def test_canonical_form_invariant_under_d_transform(deep_problem):
    # multiplying through by invertible D never changes support or global map
    data, b, shape = deep_problem
    rng = np.random.default_rng(5)
    spec = random_certified_spec(shape, b.d_y, rng, support=(1, 2))
    w = build_critical_point(spec, b, shape)
    d_list = [
        np.eye(shape.dims[h]) + 0.3 * rng.standard_normal((shape.dims[h],) * 2)
        for h in range(1, shape.H)
    ]
    wt = transform_weights(w, d_list)
    assert np.allclose(ls.global_map(wt), ls.global_map(w), atol=1e-8)
    rec = canonical_form(wt, b)
    assert rec.support == (1, 2)


def test_canonical_form_h2(shallow_problem):
    _, b, shape = shallow_problem
    rng = np.random.default_rng(6)
    spec = random_certified_spec(shape, b.d_y, rng, support=(1, 2))
    w = build_critical_point(spec, b, shape)
    rec = canonical_form(w, b)
    assert rec.support == (1, 2)
    w2 = build_critical_point(rec, b, shape, require_certified=False)
    assert np.allclose(ls.global_map(w2), ls.global_map(w), atol=1e-8)


def _certify_corpus_point(seed, index):
    """Point `index` of the benchmark's certify corpus for `seed`, replaying
    the draws of perfbench/workloads.py's ``certify_setup``: X -> aX,
    Y -> bY and W_1 -> (b/a) W_1.  Returns (data, weights, support)."""
    rng = np.random.default_rng(seed)
    count = 0
    while True:
        H = (2, 3, 5)[count % 3]
        d_x = int(rng.integers(2, 13))
        d_y = int(rng.integers(1, d_x + 1))
        dims = tuple([d_x] + [int(rng.integers(1, 13)) for _ in range(H - 1)] + [d_y])
        m = d_x + int(rng.integers(3, 20))
        data = ls.generate_gaussian_data(d_x, d_y, m, seed=int(rng.integers(2**31)))
        if not ls.check_assumption_h(data).holds:
            continue
        shape = ls.NetworkShape(dims)
        spec = random_certified_spec(shape, d_y, rng)
        a, b = 10.0 ** rng.uniform(-3.0, 3.0, size=2)
        if count == index:
            w = build_critical_point(spec, ls.build_sigma_bundle(data), shape)
            layers = [w.layer(1) * (b / a)] + list(w.layers[1:])
            return ls.DataMatrices(data.X * a, data.Y * b), ls.Weights(layers, shape), spec.support
        for _ in range(3):  # the corpus's certificate directions
            random_direction(shape, rng)
        count += 1


def test_canonical_form_cuts_ranks_like_classify():
    # sigma_2(W_H..W_2) = 5.0e-15 here: above the plain relative cut of
    # 3.1e-15, below the product-rounding floor that classify applies.
    data, w, support = _certify_corpus_point(107, 11)
    assert w.shape.dims == (10, 11, 11, 6, 4, 2) and support == (1,)
    b = ls.build_sigma_bundle(data)
    assert ls.classify(w, b, data).verdict == "non_strict_saddle"
    rec = canonical_form(w, b)
    assert rec.support == support
    w2 = build_critical_point(rec, b, w.shape, require_certified=False)
    gm, gm2 = ls.global_map(w), ls.global_map(w2)
    assert np.linalg.norm(gm - gm2) <= 1e-8 * (1 + np.linalg.norm(gm))


def test_canonical_form_rejects_noncritical(small_problem):
    _, b, shape = small_problem
    w = random_weights(shape, np.random.default_rng(7))
    with pytest.raises(ls.NotCritical):
        canonical_form(w, b)


def test_spec_json_roundtrip(small_problem):
    _, b, shape = small_problem
    rng = np.random.default_rng(8)
    spec = random_certified_spec(shape, b.d_y, rng, support=(2, 3))
    text = ls.spec_to_json(spec)
    obj = json.loads(text)
    assert set(obj) == {"support", "z_blocks", "d_blocks", "certified"}
    back = ls.spec_from_json(text, shape)
    assert back.support == spec.support
    for a, c in zip(back.z_blocks, spec.z_blocks):
        assert np.allclose(a, c)
    for a, c in zip(back.d_blocks, spec.d_blocks):
        assert np.allclose(a, c)

import json

import numpy as np
import pytest

import linsaddle as ls
from linsaddle import critical_points
from linsaddle.critical_points import (
    CriticalPointSpec,
    build_critical_point,
    canonical_form,
    staircase,
    transform_weights,
    z_block_shape,
)
from linsaddle.network import partial_suffix
from linsaddle.ranktol import criticality_scale

from conftest import random_certified_spec, random_direction, random_weights
from oracles import spec_verdict


def grad_ok(w, bundle, tol=1e-9):
    return ls.gradient(w, bundle).frob_norm() <= tol * criticality_scale(w, bundle)


# -- the refusals of support recovery and of the canonical block equations ----

def test_support_recovery_refuses_an_ambiguous_projector(small_problem):
    # K = W_3 W_2 = c u e_1^T, u = sqrt(0.3) U_1 + sqrt(0.7) U_2, puts the
    # projector's diagonal entries 0.3 and 0.7 inside the band [0.25, 0.75].
    _, b, shape = small_problem
    u = np.sqrt(0.3) * b.U[:, 0] + np.sqrt(0.7) * b.U[:, 1]
    c, e1 = 1e4, np.eye(5)[0]
    w = ls.Weights([np.outer(e1, u @ b.sigma_yx_sigma_xx_inv / c), c * np.eye(5),
                    np.outer(u, e1)], shape)
    with pytest.raises(ls.AmbiguousProjector, match="in the ambiguity band"):
        ls.associated_support(w, b, tau_crit=10.0 * criticality_scale(w, b))


def test_canonical_blocks_refuse_weights_off_the_block_form(small_problem):
    # A D_1 that mixes a signal axis into a kernel axis leaves W_2 off the
    # block form [[I_r, 0], [0, Z_2]].
    _, b, shape = small_problem
    w = ls.build_example_family(2, "tightened", b, shape)
    wt = transform_weights(w, [np.eye(5) + np.eye(5, k=1), np.eye(5)])
    with pytest.raises(ls.DegenerateBasis, match="canonical residual .* exceeds tolerance"):
        critical_points._canonical_blocks(wt, b, (1, 2), wt.frob_norm(), ls.DegenerateBasis)


def test_build_global_minimizer(small_problem):
    data, b, shape = small_problem
    r = shape.r_max  # 4
    z = tuple(np.zeros(z_block_shape(shape, r, h)) for h in range(1, shape.H + 1))
    w = build_critical_point(
        CriticalPointSpec(support=tuple(range(1, r + 1)), z_blocks=z), b, shape
    )
    assert grad_ok(w, b)
    expect = float(np.trace(b.sigma_yy) - np.sum(b.lambdas))
    assert ls.loss(w, b) == pytest.approx(expect, rel=1e-10)


def test_build_empty_support(small_problem):
    data, b, shape = small_problem
    z = tuple(np.zeros(z_block_shape(shape, 0, h)) for h in range(1, shape.H + 1))
    w = build_critical_point(CriticalPointSpec(support=(), z_blocks=z), b, shape)
    assert np.allclose(ls.global_map(w), 0)
    assert ls.loss(w, b) == pytest.approx(float(np.trace(b.sigma_yy)))


def test_build_rejects_uncertified(small_problem):
    _, b, shape = small_problem
    r = 2
    z = []
    for h in range(1, shape.H + 1):
        Z = np.ones(z_block_shape(shape, r, h))  # no zero blocks
        z.append(Z)
    spec = CriticalPointSpec(support=(1, 2), z_blocks=tuple(z))
    with pytest.raises(ls.NotCritical):
        build_critical_point(spec, b, shape)


def test_build_rejects_identity_z_blocks_at_depth_24():
    # Z_H..Z_1 is a nonzero 4 x 20 identity here.  A floor of the product of
    # the blocks' Frobenius norms, sqrt(18) for 23 of them, called it zero.
    b = ls.build_sigma_bundle(ls.generate_gaussian_data(20, 6, 200, seed=1))
    shape = ls.NetworkShape((20,) * 24 + (6,))
    z = tuple(np.eye(*z_block_shape(shape, 2, h)) for h in range(1, shape.H + 1))
    with pytest.raises(ls.NotCritical):
        build_critical_point(CriticalPointSpec(support=(1, 2), z_blocks=z), b, shape)


def test_build_rejects_ill_conditioned_d(small_problem):
    _, b, shape = small_problem
    rng = np.random.default_rng(0)
    spec = random_certified_spec(shape, b.d_y, rng, support=(1, 2))
    bad = list(spec.d_blocks)
    bad[0] = np.diag([1.0] + [1e-12] * (shape.dims[1] - 1))
    from dataclasses import replace

    with pytest.raises(ls.IllConditioned, match="D_1 has condition number 1e\\+12"):
        build_critical_point(replace(spec, d_blocks=tuple(bad)), b, shape)


@pytest.mark.parametrize("seed", range(4))
def test_omitted_d_blocks_build_the_identity_d_weights(deep_problem, seed):
    # d_blocks=None skips the conditioning and the products that explicit
    # identity D blocks go through, and gives the same weights bit for bit.
    _, b, shape = deep_problem
    from dataclasses import replace

    spec = replace(random_certified_spec(shape, b.d_y, np.random.default_rng(seed)), d_blocks=None)
    eye = replace(spec, d_blocks=tuple(np.eye(d) for d in shape.dims[1:-1]))
    w, w_eye = build_critical_point(spec, b, shape), build_critical_point(eye, b, shape)
    assert all(np.array_equal(W, W_eye) for W, W_eye in zip(w.layers, w_eye.layers))


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
    assert ls.loss(w, b) == pytest.approx(
        ls.critical_value(spec.support, b), rel=1e-8, abs=1e-8
    )


@pytest.mark.parametrize("H", range(2, 13))
def test_staircase_finds_the_first_live_pivot_in_linear_time(H):
    # Random live patterns in which a dead chain stays dead when made longer:
    # the middle chain L_{i-1}..L_{j+1} of (i, j) is dead when it holds one of
    # a few dead sub-chains L_t..L_s, the outer chain when j >= j0 and
    # i <= i0 for one of a few dead pivots (i0, j0).  The staircase must find
    # the first pivot in (i, j) order with both chains live, hand the middle
    # predicate the product it names, and make at most 4H - 6 predicate calls:
    # b rises at most H - 2 times, each column ends its climb with one failed
    # middle test and one outer test, and the last column walks down at most
    # H - 2 pivots.
    rng = np.random.default_rng(H)
    for _ in range(40):
        dims = rng.integers(1, 4, size=H + 1)
        layers = [rng.standard_normal((dims[h], dims[h - 1])) for h in range(1, H + 1)]
        dead_mid = [sorted(rng.integers(1, H + 1, size=2)) for _ in range(rng.integers(0, 4))]
        # i0 skewed toward H, so that the walk often climbs through many columns
        dead_out = [(int(rng.integers(i0, H + 1)), int(rng.integers(1, H)))
                    for i0 in rng.integers(2, H + 1, size=rng.integers(0, 4))]
        calls = []

        def middle_dead(i, j):
            return any(j + 1 <= s and t <= i - 1 for s, t in dead_mid)

        def outer_dead(i, j):
            return any(j >= j0 and i <= i0 for i0, j0 in dead_out)

        def middle_live(i, j, mid):
            calls.append((i, j))
            want = np.eye(dims[j])
            for L in layers[j:i - 1]:
                want = L @ want
            np.testing.assert_allclose(mid, want, rtol=1e-12, atol=1e-12)
            return not middle_dead(i, j)

        def outer_live(i, j):
            calls.append((i, j))
            return not outer_dead(i, j)

        live = [(i, j) for i in range(2, H + 1) for j in range(1, i)
                if not (middle_dead(i, j) or outer_dead(i, j))]
        assert staircase(layers, middle_live, outer_live) == (live[0] if live else None)
        assert len(calls) <= 4 * H - 6


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
    with pytest.raises(ls.NotCritical, match="gradient norm .* exceeds tolerance"):
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


def test_enumerate_guard_counts_supports(monkeypatch, small_problem):
    # The guard counts the supports of size <= r_max that it would list:
    # 16 at d_y = r_max = 4, refused one below that count.
    _, b, shape = small_problem
    monkeypatch.setattr(critical_points, "MAX_SUPPORTS", 15)
    with pytest.raises(ls.TooLarge, match="16 supports exceed the enumeration limit 15"):
        ls.enumerate_critical_values(b, shape)
    monkeypatch.setattr(critical_points, "MAX_SUPPORTS", 16)
    assert len(ls.enumerate_critical_values(b, shape)) == 16


def test_enumerate_guard():
    # d_y = 21 lists its 22 supports at r_max = 1; at r_max = 21 its 2^21
    # supports exceed MAX_SUPPORTS = 2^20, every support of d_y = 20.
    data = ls.generate_gaussian_data(25, 21, 40, seed=0)
    b = ls.build_sigma_bundle(data)
    assert len(ls.enumerate_critical_values(b, ls.NetworkShape((25, 1, 21)))) == 22
    with pytest.raises(ls.TooLarge, match=f"{2**21} supports exceed"):
        ls.enumerate_critical_values(b, ls.NetworkShape((25, 21, 21)))


def test_canonical_d1_factorization(small_problem):
    # W_H..W_2 D_1 = [U_S, 0]: the last d_1 - r columns of D_1 span ker(W_H..W_2)
    _, b, shape = small_problem
    rng = np.random.default_rng(3)
    spec = random_certified_spec(shape, b.d_y, rng, support=(1, 2))
    w = build_critical_point(spec, b, shape)
    D = canonical_form(w, b).d_blocks[0]
    K = partial_suffix(w, 2)
    stacked = np.hstack([b.u_cols((1, 2)), np.zeros((b.d_y, shape.dims[1] - 2))])
    assert np.allclose(K @ D, stacked, atol=1e-8)
    assert np.linalg.matrix_rank(D) == shape.dims[1]


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


def test_canonical_form_recovers_axis_permuted_d(deep_problem):
    # D_h a permutation that moves the signal axes last: the kernel bases are
    # aligned with the axes in their order, so D and Z come back as built
    _, b, shape = deep_problem
    rng = np.random.default_rng(4)
    r = 2
    z = [np.zeros(z_block_shape(shape, r, h)) for h in range(1, shape.H + 1)]
    for Z in z[1:-1]:
        Z[:] = rng.standard_normal(Z.shape)
    d = tuple(np.roll(np.eye(k), r, axis=1) for k in shape.dims[1:-1])
    spec = CriticalPointSpec(support=(1, 2), z_blocks=tuple(z), d_blocks=d)
    rec = canonical_form(build_critical_point(spec, b, shape), b)
    for Din, Dout in zip(spec.d_blocks, rec.d_blocks):
        assert np.allclose(Din, Dout, atol=1e-8)
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
    w2 = build_critical_point(rec, b, shape)
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
    assert np.allclose(ls.global_map(build_critical_point(rec, b, shape)), ls.global_map(w),
                       atol=1e-8)
    assert spec_verdict(rec, b) == spec_verdict(spec, b) == (True, "strict_saddle")


def test_canonical_form_h2(shallow_problem):
    _, b, shape = shallow_problem
    rng = np.random.default_rng(6)
    spec = random_certified_spec(shape, b.d_y, rng, support=(1, 2))
    w = build_critical_point(spec, b, shape)
    rec = canonical_form(w, b)
    assert rec.support == (1, 2)
    w2 = build_critical_point(rec, b, shape)
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
    w2 = build_critical_point(rec, b, w.shape)
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
    assert set(obj) == {"support", "z_blocks", "d_blocks"}
    back = ls.spec_from_json(text, shape)
    assert back.support == spec.support
    for a, c in zip(back.z_blocks, spec.z_blocks):
        assert np.allclose(a, c)
    for a, c in zip(back.d_blocks, spec.d_blocks):
        assert np.allclose(a, c)


# -- every raise of the module fires ------------------------------------------

@pytest.mark.parametrize("support, z_count, d_blocks, error, match", [
    ((1, 2, 3, 4), 0, None, ls.InvalidRank, r"\|S\| = 4 exceeds r_max = 3"),
    ((0, 1), 0, None, ls.InvalidRank, r"support indices must lie in \[1, d_y\]"),
    ((2, 1), 0, None, ls.InvalidRank, "sorted and duplicate-free"),
    ((1, 1), 0, None, ls.InvalidRank, "sorted and duplicate-free"),
    ((1,), 2, None, ls.InvalidShape, "need 3 Z blocks, got 2"),
    ((1,), 3, 1, ls.InvalidShape, "need 2 D blocks, got 1"),
    ((1,), 3, 2, ls.InvalidShape, "D_2 must be 3 square"),
])
def test_spec_validation_refuses(support, z_count, d_blocks, error, match):
    shape = ls.NetworkShape((6, 5, 3, 4))
    z = tuple(np.zeros(z_block_shape(shape, len(support), h)) for h in range(1, z_count + 1))
    d = None if d_blocks is None else (np.eye(5), np.eye(4))[:d_blocks]
    with pytest.raises(error, match=match):
        CriticalPointSpec(support=support, z_blocks=z, d_blocks=d).validate(shape, 4)


@pytest.mark.parametrize("h", [0, 4])
def test_z_block_shape_refuses_a_layer_outside_the_network(h):
    shape = ls.NetworkShape((6, 5, 3, 4))
    with pytest.raises(ls.InvalidShape, match=f"Z_{h}: the network has 3 layers"):
        z_block_shape(shape, 1, h)


def test_spec_from_json_refuses_more_z_blocks_than_layers():
    shape = ls.NetworkShape((6, 5, 3, 4))
    z = [np.zeros(z_block_shape(shape, 1, h)).tolist() for h in (1, 2, 3, 3)]
    text = json.dumps({"support": [1], "z_blocks": z, "d_blocks": None})
    with pytest.raises(ls.InvalidShape, match="Z_4: the network has 3 layers"):
        critical_points.spec_from_json(text, shape)


def test_build_refuses_a_shape_of_other_data(small_problem):
    _, b, _ = small_problem
    shape = ls.NetworkShape((5, 5, 4))
    spec = CriticalPointSpec(support=(), z_blocks=(np.zeros((5, 5)), np.zeros((4, 5))))
    with pytest.raises(ls.InvalidShape, match="shape incompatible with bundle"):
        build_critical_point(spec, b, shape)


def test_example_family_refuses_unknown_names(small_problem):
    _, b, shape = small_problem
    with pytest.raises(ValueError, match="unknown variant 'loose'"):
        ls.build_example_family(1, "loose", b, shape)
    with pytest.raises(ValueError, match="unknown interior fill 'ones'"):
        ls.build_example_family(1, "tightened", b, shape, interior="ones")


def test_support_recovery_refuses_a_global_map_off_the_optimum(small_problem):
    # Doubling W_1 of a critical point keeps K = W_3 W_2, hence the support,
    # and doubles the global map; a gate handed over as zero gradient lets
    # the point through to the map check.
    _, b, shape = small_problem
    w = ls.build_example_family(2, "tightened", b, shape)
    doubled = ls.Weights([2.0 * w.layer(1), w.layer(2), w.layer(3)], shape)
    with pytest.raises(ls.NotCritical, match="global map is .* away from the support-S optimum"):
        ls.associated_support(doubled, b, _gate=(0.0, 1.0))


def test_canonical_form_refuses_a_support_that_k_does_not_reach(small_problem, monkeypatch):
    # At a critical point U_S^T W_H..W_2 has rank |S|, so only a support
    # recovery that disagrees with the SVD after it reaches this refusal.
    _, b, shape = small_problem
    w = ls.Weights([np.ones((5, 6)), np.zeros((5, 5)), np.zeros((4, 5))], shape)
    monkeypatch.setattr(critical_points, "associated_support",
                        lambda *a, **k: critical_points.SupportResult((1,), np.zeros(4), 0.0))
    with pytest.raises(ls.IllConditioned, match=r"U_S\^T W_H..W_2 has rank below \|S\| = 1"):
        canonical_form(w, b)


def test_canonical_form_refuses_an_ill_conditioned_basis(small_problem):
    # Scaling the second signal direction of the hidden layer 1 by 1e-9
    # keeps the point critical; the two signal columns F_1 of D_1 then
    # differ in length by 1e9.
    _, b, shape = small_problem
    w = ls.build_example_family(2, "tightened", b, shape)
    w = transform_weights(w, [np.diag([1.0, 1e-9, 1.0, 1.0, 1.0]), np.eye(5)])
    with pytest.raises(ls.IllConditioned, match="canonical D_1 has condition number"):
        canonical_form(w, b)


def _unbalanced_points(seed, draws):
    """Critical points of random (S, Z, D) specs at depths 2 to 5, each with
    one adjacent pair of layers rescaled, W_h -> a W_h and
    W_{h+1} -> W_{h+1} / a, which keeps every product of the layers that
    holds both or neither, hence the point and its verdict."""
    rng = np.random.default_rng(seed)
    for _ in range(draws):
        H = int(rng.integers(2, 6))
        d_x = int(rng.integers(2, 7))
        d_y = int(rng.integers(1, d_x + 1))
        dims = (d_x, *(int(rng.integers(1, 7)) for _ in range(H - 1)), d_y)
        data = ls.generate_gaussian_data(d_x, d_y, d_x + 10, seed=int(rng.integers(2**31)))
        if not ls.check_assumption_h(data).holds:
            continue
        b, shape = ls.build_sigma_bundle(data), ls.NetworkShape(dims)
        spec = random_certified_spec(shape, d_y, rng)
        w = build_critical_point(spec, b, shape)
        for h in range(1, H):
            for a in (1e-10, 1e-6, 1e-2, 1e2, 1e6, 1e10):
                layers = list(w.layers)
                layers[h - 1], layers[h] = a * layers[h - 1], layers[h] / a
                yield b, spec, ls.Weights(layers, shape)


@pytest.mark.parametrize("seed", range(4))
def test_canonical_form_of_unbalanced_layers(seed):
    # D_h = [F_h | E_h] takes E_h at the size of the signal columns F_h,
    # which follow the scale of the layers, so that cond(D_h) does not.
    for b, spec, w in _unbalanced_points(seed, 40):
        rec = canonical_form(w, b)
        assert rec.support == spec.support
        assert spec_verdict(rec, b) == spec_verdict(spec, b)
        gm, gm2 = ls.global_map(w), ls.global_map(build_critical_point(rec, b, w.shape))
        assert np.linalg.norm(gm - gm2) <= 1e-8 * (1 + np.linalg.norm(gm))

import numpy as np
import pytest

import linsaddle as ls
import linsaddle.curvature as curvature
from linsaddle.curvature import (
    MAX_DENSE_PARAMS,
    MAX_TAYLOR_DEPTH,
    CurvatureCache,
    _choose_beta,
)
from linsaddle.critical_points import CriticalPointSpec, transform_weights, z_block_shape

from conftest import random_certified_spec, random_direction, random_weights
from oracles import (
    line_loss,
    m_column_ftst,
    polarization_hessian,
    polyfit_c2,
    second_difference_c2,
)


# ---------------------------------------------------------------------------
# Exact line expansion
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(4))
def test_taylor_matches_line_loss(small_problem, seed):
    data, b, shape = small_problem
    rng = np.random.default_rng(seed)
    w = random_weights(shape, rng, scale=0.6)
    v = random_direction(shape, rng)
    tc = ls.taylor_coeffs(w, v, data)
    assert len(tc.coeffs) == 2 * shape.H + 1
    for t in [-1.3, -0.2, 0.0, 0.05, 0.7, 2.0]:
        ref = line_loss(list(w.layers), list(v.layers), data.X, data.Y, t)
        assert tc.value(t) == pytest.approx(ref, rel=1e-10, abs=1e-10)


def test_taylor_coefficients_match_interpolation(small_problem):
    data, b, shape = small_problem
    rng = np.random.default_rng(5)
    w = random_weights(shape, rng, scale=0.5)
    v = random_direction(shape, rng)
    tc = ls.taylor_coeffs(w, v, data)
    ref = polyfit_c2(list(w.layers), list(v.layers), data.X, data.Y, 2 * shape.H)
    scale = np.abs(ref).max()
    assert np.allclose(tc.coeffs, ref, atol=1e-8 * scale)


def test_taylor_low_order_terms(small_problem):
    # c0 is the loss, c1 is the directional derivative <grad, V>
    data, b, shape = small_problem
    rng = np.random.default_rng(6)
    w = random_weights(shape, rng, scale=0.5)
    v = random_direction(shape, rng)
    tc = ls.taylor_coeffs(w, v, data)
    assert tc.coeffs[0] == pytest.approx(ls.loss(w, b, data), rel=1e-12)
    g = ls.gradient(w, b)
    inner = sum(float(np.sum(G * V)) for G, V in zip(g.layers, v.layers))
    assert tc.coeffs[1] == pytest.approx(inner, rel=1e-9)


def test_taylor_depth_guard():
    dims = (2,) * (MAX_TAYLOR_DEPTH + 2)
    shape = ls.NetworkShape(dims)
    data = ls.generate_gaussian_data(2, 2, 10, seed=0)
    rng = np.random.default_rng(0)
    w = random_weights(shape, rng)
    with pytest.raises(ls.TooDeep):
        ls.taylor_coeffs(w, random_direction(shape, rng), data)


def test_taylor_shape_mismatch(small_problem):
    data, _, shape = small_problem
    rng = np.random.default_rng(1)
    w = random_weights(shape, rng)
    other = ls.NetworkShape((6, 3, 3, 4))
    with pytest.raises(ls.InvalidShape):
        ls.taylor_coeffs(w, random_direction(other, rng), data)


# ---------------------------------------------------------------------------
# Quadratic form and Hessian
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(4))
def test_c2_against_oracles(deep_problem, seed):
    data, b, shape = deep_problem
    rng = np.random.default_rng(10 + seed)
    w = random_weights(shape, rng, scale=0.5)
    v = random_direction(shape, rng)
    c2 = ls.c2_value(w, v, data)
    assert c2 == pytest.approx(ls.taylor_coeffs(w, v, data).c2, rel=1e-10)
    sd = second_difference_c2(list(w.layers), list(v.layers), data.X, data.Y)
    assert c2 == pytest.approx(sd, rel=1e-4, abs=1e-4)


def test_hessian_matches_polarization(shallow_problem):
    data, b, shape = shallow_problem
    rng = np.random.default_rng(20)
    w = random_weights(shape, rng, scale=0.5)
    H = ls.hessian_dense(w, data)
    assert np.allclose(H, H.T, atol=1e-10)
    shapes = [shape.layer_shape(h) for h in range(1, shape.H + 1)]

    def c2_fn(mats):
        return ls.c2_value(w, ls.Direction(mats, shape), data)

    ref = polarization_hessian(c2_fn, shapes)
    assert np.allclose(H, ref, atol=1e-8 * (1 + np.abs(ref).max()))


def test_hessian_quadratic_form(deep_problem):
    data, b, shape = deep_problem
    rng = np.random.default_rng(21)
    w = random_weights(shape, rng, scale=0.5)
    H = ls.hessian_dense(w, data)
    for _ in range(5):
        v = random_direction(shape, rng)
        flat = np.concatenate([M.ravel() for M in v.layers])
        quad = float(flat @ H @ flat)
        assert quad == pytest.approx(2.0 * ls.c2_value(w, v, data), rel=1e-10)


def test_hessian_min_eig_probe_agrees(deep_problem):
    data, b, shape = deep_problem
    rng = np.random.default_rng(22)
    spec = random_certified_spec(shape, b.d_y, rng, support=(1, 3))
    w = ls.build_critical_point(spec, b, shape)
    dense = ls.hessian_min_eig(w, data, mode="dense")
    probe = ls.hessian_min_eig(w, data, mode="probe", tol=1e-9)
    assert probe == pytest.approx(dense, rel=1e-5, abs=1e-6)
    with pytest.raises(ValueError):
        ls.hessian_min_eig(w, data, mode="exactly")


def test_probe_finds_the_zero_eigenvalue_at_a_tightened_point():
    # At a non-strict saddle lambda_min = 0 sits inside a large null space;
    # a restarted solver locks onto the smallest nonzero eigenvalue instead.
    data = ls.generate_gaussian_data(12, 6, 200, seed=3)
    shape = ls.NetworkShape((12,) * 8 + (6,))
    w = ls.build_example_family(2, "tightened", ls.build_sigma_bundle(data), shape,
                                interior="identity")
    assert shape.n_params == 1080
    dense = ls.hessian_min_eig(w, data, mode="dense")
    probe = ls.hessian_min_eig(w, data, mode="probe")
    assert probe == pytest.approx(dense, abs=1e-6)
    assert ls.hessian_min_eig(w, data, mode="probe") == probe  # seeded start vector


def test_probe_is_capped_and_raises_a_library_error(monkeypatch, deep_problem):
    data, b, shape = deep_problem
    w = ls.build_example_family(2, "tightened", b, shape)
    matvecs = []
    matvec = CurvatureCache.hessian_matvec

    def counted(self, x):
        matvecs.append(1)
        return matvec(self, x)

    monkeypatch.setattr(CurvatureCache, "hessian_matvec", counted)
    monkeypatch.setattr(curvature, "PROBE_MAXITER", 2)
    for return_vector in (False, True):
        with pytest.raises(ls.ProbeNotConverged):
            ls.hessian_min_eig(w, data, mode="probe", return_vector=return_vector)
    assert len(matvecs) == 2 * 2


@pytest.fixture(scope="module")
def depth16_point():
    """H = 16 with widths 3, beyond the exact expansion's depth guard."""
    shape = ls.NetworkShape((4,) + (3,) * 15 + (3,))
    data = ls.generate_gaussian_data(4, 3, 20, seed=4)
    w = random_weights(shape, np.random.default_rng(50), scale=0.8)
    return data, shape, w


def test_c2_at_depth_16_matches_second_difference(depth16_point):
    data, shape, w = depth16_point
    rng = np.random.default_rng(51)
    assert shape.H > MAX_TAYLOR_DEPTH
    with pytest.raises(ls.TooDeep):
        ls.taylor_coeffs(w, random_direction(shape, rng), data)
    for _ in range(4):
        v = random_direction(shape, rng)
        sd = second_difference_c2(list(w.layers), list(v.layers), data.X, data.Y)
        assert ls.c2_value(w, v, data) == pytest.approx(sd, rel=1e-4, abs=1e-4)


def test_hessian_matvec_at_depth_16_matches_polarization(depth16_point):
    # u^T Hess v = c2(u + v) - c2(u) - c2(v), each c2 from second differences.
    data, shape, w = depth16_point
    rng = np.random.default_rng(52)
    cache = CurvatureCache(w, data)

    def sd(mats):
        return second_difference_c2(list(w.layers), mats, data.X, data.Y)

    for _ in range(4):
        u, v = random_direction(shape, rng), random_direction(shape, rng)
        flat_u = np.concatenate([M.ravel() for M in u.layers])
        flat_v = np.concatenate([M.ravel() for M in v.layers])
        uv = [a + b for a, b in zip(u.layers, v.layers)]
        ref = sd(uv) - sd(list(u.layers)) - sd(list(v.layers))
        scale = abs(sd(uv)) + abs(sd(list(u.layers))) + abs(sd(list(v.layers)))
        assert float(flat_u @ cache.hessian_matvec(flat_v)) == pytest.approx(
            ref, abs=1e-4 * (1.0 + scale)
        )


def test_hessian_size_guard():
    dims = (40, 40, 40)
    assert ls.NetworkShape(dims).n_params > MAX_DENSE_PARAMS
    data = ls.generate_gaussian_data(40, 40, 50, seed=3)
    w = random_weights(ls.NetworkShape(dims), np.random.default_rng(0))
    with pytest.raises(ls.TooLarge):
        ls.hessian_dense(w, data)


# ---------------------------------------------------------------------------
# Witness directions
# ---------------------------------------------------------------------------


def test_eigenswap_witness_exact_polynomial(small_problem):
    data, b, shape = small_problem
    rng = np.random.default_rng(30)
    spec = random_certified_spec(shape, b.d_y, rng, support=(1, 3))
    w = ls.build_critical_point(spec, b, shape)
    wit = ls.witness_eigenswap(w, b, (1, 3))
    # swap index 2 in, index 3 out
    assert wit.diagnostics["swap_in"] == 2 and wit.diagnostics["swap_out"] == 3
    assert wit.c2_predicted == pytest.approx(b.lambdas[2] - b.lambdas[1], rel=1e-12)
    tc = ls.taylor_coeffs(w, wit.direction, data)
    # the line is exactly L + (lambda_j - lambda_i) t^2 + lambda_i t^4
    assert tc.coeffs[2] == pytest.approx(wit.c2_predicted, rel=1e-8)
    assert tc.coeffs[4] == pytest.approx(b.lambdas[1], rel=1e-8)
    others = np.delete(tc.coeffs, [0, 2, 4])
    assert np.abs(others).max() < 1e-8 * (1 + np.abs(tc.coeffs).max())


def test_eigenswap_not_applicable_on_leading_support(small_problem):
    _, b, shape = small_problem
    rng = np.random.default_rng(31)
    spec = random_certified_spec(shape, b.d_y, rng, support=(1, 2))
    w = ls.build_critical_point(spec, b, shape)
    with pytest.raises(ls.NotApplicable):
        ls.witness_eigenswap(w, b, (1, 2))


def test_untightened_witnesses_match_measured_c2(deep_problem):
    data, b, shape = deep_problem
    rng = np.random.default_rng(32)
    seen = set()
    for seed in range(15):
        spec = random_certified_spec(
            shape, b.d_y, rng, support=(1, int(rng.integers(2, 3)))
        )
        w = ls.build_critical_point(spec, b, shape)
        for p in ls.all_pivots(w, b, len(spec.support)):
            if p.tightened:
                continue
            try:
                wit = ls.witness_untightened(w, b, data, spec.support, (p.i, p.j))
            except ls.NotApplicable:
                continue
            seen.add(wit.case)
            meas = ls.c2_value(w, wit.direction, data)
            assert meas == pytest.approx(wit.c2_predicted, rel=1e-6, abs=1e-10)
            assert meas < 0
    assert seen == {
        "untightened_interior_first", "untightened_last_first",
        "untightened_last_interior", "untightened_interior_interior",
    }


def _orthogonal(n, rng):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def test_untightened_witness_is_invariant_under_hidden_rotations(deep_problem):
    # W_h -> Q_h W_h Q_{h-1}^T with orthogonal hidden-layer Q_h (Q_0 = I_dx,
    # Q_H = I_dy) maps T, the kernel past the pivot and its image covariantly,
    # so the witness c2 must not change.  Zero blocks Z_i and Z_j (and random
    # others) leave the pivot (i, j) untightened.
    data, b, shape = deep_problem
    rng = np.random.default_rng(33)
    compared, pivots = 0, set()
    for zero in [(1, 3), (1, 4), (2, 4), (1, 2), (2, 3), (3, 4)] * 2:
        z = tuple(
            np.zeros(z_block_shape(shape, 2, h)) if h in zero
            else rng.standard_normal(z_block_shape(shape, 2, h))
            for h in range(1, shape.H + 1)
        )
        d = tuple(np.eye(n) + 0.2 * rng.standard_normal((n, n)) for n in shape.dims[1:-1])
        spec = CriticalPointSpec(support=(1, 2), z_blocks=z, d_blocks=d)
        w = ls.build_critical_point(spec, b, shape)
        Q = [np.eye(shape.d_x)] + [_orthogonal(n, rng) for n in shape.dims[1:-1]]
        Q.append(np.eye(shape.d_y))
        w_rot = ls.Weights(
            [Q[h] @ w.layer(h) @ Q[h - 1].T for h in range(1, shape.H + 1)], shape
        )
        for p in ls.all_pivots(w, b, 2):
            if p.tightened:
                continue
            wit = ls.witness_untightened(w, b, data, spec.support, (p.i, p.j))
            if wit.pivot != (p.i, p.j):
                continue  # reduced to (j, 1)
            rot = ls.witness_untightened(w_rot, b, data, spec.support, (p.i, p.j))
            assert rot.pivot == wit.pivot
            assert rot.c2_predicted == pytest.approx(wit.c2_predicted, rel=1e-10)
            compared += 1
            pivots.add(wit.pivot)
    assert compared == 12
    assert {(2, 1), (3, 2), (4, 3)} <= pivots


def test_adjacent_pivot_witness_does_not_depend_on_the_kernel_basis(monkeypatch, deep_problem):
    # At i = j + 1 the kernel of W_H..W_{j+1} has no preferred basis; the
    # witness c2 must be the same for every orthonormal basis of it.
    data, b, shape = deep_problem
    rng = np.random.default_rng(34)
    kernel_basis = curvature._kernel_basis
    rotate = [False]

    def rotated(M, rank_tol):
        N = kernel_basis(M, rank_tol)
        return N @ _orthogonal(N.shape[1], rng) if rotate[0] else N

    monkeypatch.setattr(curvature, "_kernel_basis", rotated)
    compared = 0
    for _ in range(15):
        spec = random_certified_spec(shape, b.d_y, rng, support=(1, 2))
        w = ls.build_critical_point(spec, b, shape)
        for p in ls.all_pivots(w, b, 2):
            if p.tightened or p.i != p.j + 1:
                continue
            rotate[0] = False
            try:
                wit = ls.witness_untightened(w, b, data, spec.support, (p.i, p.j))
            except ls.NotApplicable:
                continue
            if wit.pivot != (p.i, p.j):
                continue  # reduced to (j, 1)
            rotate[0] = True
            for _ in range(3):
                rot = ls.witness_untightened(w, b, data, spec.support, (p.i, p.j))
                assert rot.c2_predicted == pytest.approx(wit.c2_predicted, rel=1e-8)
                assert ls.c2_value(w, rot.direction, data) == pytest.approx(
                    rot.c2_predicted, rel=1e-6, abs=1e-10)
            compared += 1
    assert compared >= 3


def test_choose_beta_minimizes():
    beta, val = _choose_beta(2.0, 3.0)
    assert beta == pytest.approx(-0.75) and val == pytest.approx(-1.125)
    beta, val = _choose_beta(0.0, 3.0)
    assert beta == -3.0 and val == -9.0


# ---------------------------------------------------------------------------
# Tightened points: structure and the sum-of-squares certificate
# ---------------------------------------------------------------------------


def test_tightened_structure_indices(deep_problem):
    _, b, shape = deep_problem
    w = ls.build_example_family(2, "tightened", b, shape)
    st = curvature._tightened(w, b)[0]
    assert st.p == shape.H and st.q == 1
    assert st.residual < 1e-10


def test_tightened_structure_rejects_untightened(deep_problem):
    _, b, shape = deep_problem
    w = ls.build_example_family(2, "non_tightened", b, shape)
    with pytest.raises(ls.NotTightened):
        curvature._tightened(w, b)[0]


@pytest.mark.parametrize("seed", range(5))
def test_ft_st_identity_and_nonnegativity(deep_problem, seed):
    data, b, shape = deep_problem
    w = ls.build_example_family(1 + seed % 2, "tightened", b, shape)
    rng = np.random.default_rng(40 + seed)
    scale = (1.0 + w.sq_norm()) * float(np.sum(data.X * data.X))
    for _ in range(20):
        v = random_direction(shape, rng)
        dec = ls.ft_st_decomposition(w, v, b, data)
        meas = ls.c2_value(w, v, data)
        assert dec.c2 == pytest.approx(meas, rel=1e-8, abs=1e-8 * scale)
        assert dec.c2 >= -1e-12 * scale
        assert dec.a1 >= -1e-12 * scale


def test_ft_st_requires_canonical_position(deep_problem):
    data, b, shape = deep_problem
    w = ls.build_example_family(2, "tightened", b, shape)
    rng = np.random.default_rng(41)
    d_list = [
        np.eye(shape.dims[h]) + 0.3 * rng.standard_normal((shape.dims[h],) * 2)
        for h in range(1, shape.H)
    ]
    wt = transform_weights(w, d_list)
    v = random_direction(shape, rng)
    with pytest.raises(ls.NeedsCanonicalization):
        ls.ft_st_decomposition(wt, v, b, data)


def test_ft_st_rejects_full_rank(deep_problem):
    data, b, shape = deep_problem
    rng = np.random.default_rng(42)
    r = shape.r_max
    from linsaddle.critical_points import CriticalPointSpec, z_block_shape

    z = tuple(np.zeros(z_block_shape(shape, r, h)) for h in range(1, shape.H + 1))
    w = ls.build_critical_point(
        CriticalPointSpec(support=tuple(range(1, r + 1)), z_blocks=z), b, shape
    )
    with pytest.raises(ls.NotApplicable):
        ls.ft_st_decomposition(w, random_direction(shape, rng), b, data)


def test_ft_st_matches_m_column_form_at_m_3000():
    # A tightened point whose Z_1 and Z_2 are nonzero (Z_2 Z_1 Sigma_XY U_Q =
    # 0, Z_3 = Z_4 = 0), so q = 2 and both the projector and the Z-prefix
    # terms enter A2 and A4.
    m, r = 3000, 2
    data = ls.generate_gaussian_data(10, 4, m, seed=11)
    b = ls.build_sigma_bundle(data)
    shape = ls.NetworkShape((10, 8, 8, 8, 4))
    rng = np.random.default_rng(12)
    Z1 = rng.standard_normal(z_block_shape(shape, r, 1))
    N = Z1 @ b.sigma_xy @ b.U[:, r:]
    Z2 = rng.standard_normal(z_block_shape(shape, r, 2))
    Z2 = Z2 - Z2 @ N @ np.linalg.pinv(N)
    z = (Z1, Z2, np.zeros(z_block_shape(shape, r, 3)), np.zeros(z_block_shape(shape, r, 4)))
    w = ls.build_critical_point(CriticalPointSpec(support=(1, 2), z_blocks=z), b, shape)
    for _ in range(2):
        v = random_direction(shape, rng)
        dec = ls.ft_st_decomposition(w, v, b, data)
        assert (dec.structure.p, dec.structure.q) == (4, 2)
        assert dec.A2.shape == (r, shape.d_x)
        A2, A4 = m_column_ftst(w.layers, v.layers, data.X, data.Y, r, 4, 2)
        assert A2.shape == (r, m)
        assert float(np.sum(dec.A2**2)) == pytest.approx(float(np.sum(A2**2)), rel=1e-9)
        assert np.allclose(dec.A4, A4, rtol=1e-9, atol=1e-9 * np.abs(A4).max())
        assert dec.c2 == pytest.approx(ls.c2_value(w, v, data), rel=1e-8)


def test_c2_value_reads_only_the_residual(depth16_point):
    # c2 needs R alone; the forward/backward passes come with the first
    # Hessian-vector product and must give the same R and the same c2.
    data, shape, w = depth16_point
    rng = np.random.default_rng(53)
    cache = CurvatureCache(w, data)
    assert "P" not in vars(cache) and "B" not in vars(cache)
    v = random_direction(shape, rng)
    c2 = cache.c2(v)
    cache.hessian_matvec(np.concatenate([M.ravel() for M in v.layers]))
    assert np.array_equal(cache.R, cache.P[shape.H] - data.Y)
    assert np.array_equal(cache.B[shape.H], cache.R)
    assert ls.c2_value(w, v, data) == cache.c2(v) == c2

import gc
import weakref

import numpy as np
import pytest
from numpy.polynomial.polynomial import polyval

import linsaddle as ls
import linsaddle.curvature as curvature
from linsaddle.curvature import (
    MAX_DENSE_PARAMS,
    CurvatureCache,
    _choose_beta,
)
from linsaddle.critical_points import CriticalPointSpec, transform_weights, z_block_shape

from conftest import random_certified_spec, random_direction, random_weights
from oracles import (
    all_pivots_sweep,
    layerwise_hessian_matvec,
    line_loss,
    m_column_c2,
    m_column_ftst,
    m_column_hessian_matvec,
    polarization_hessian,
    polyfit_c2,
    second_difference_c2,
)


@pytest.mark.parametrize("pivot", [(2, 3), (4, 1), (3, 0)])
def test_untightened_witness_refuses_a_pivot_off_the_triangle(small_problem, pivot):
    _, b, shape = small_problem
    w = ls.build_example_family(2, "non_tightened", b, shape)
    with pytest.raises(ls.InvalidPivot, match=rf"1 <= j < i <= H, got \({pivot[0]}, {pivot[1]}\)"):
        ls.witness_untightened(w, b, (1, 2), pivot)


# ---------------------------------------------------------------------------
# Exact line expansion
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(4))
def test_taylor_matches_line_loss(small_problem, seed):
    data, b, shape = small_problem
    rng = np.random.default_rng(seed)
    w = random_weights(shape, rng, scale=0.6)
    v = random_direction(shape, rng)
    c = ls.taylor_coeffs(w, v, b)
    assert len(c) == 2 * shape.H + 1
    for t in [-1.3, -0.2, 0.0, 0.05, 0.7, 2.0]:
        ref = line_loss(list(w.layers), list(v.layers), data.X, data.Y, t)
        assert polyval(t, c) == pytest.approx(ref, rel=1e-10, abs=1e-10)


def test_taylor_coefficients_match_interpolation(small_problem):
    data, b, shape = small_problem
    rng = np.random.default_rng(5)
    w = random_weights(shape, rng, scale=0.5)
    v = random_direction(shape, rng)
    c = ls.taylor_coeffs(w, v, b)
    ref = polyfit_c2(list(w.layers), list(v.layers), data.X, data.Y, 2 * shape.H)
    scale = np.abs(ref).max()
    assert np.allclose(c, ref, atol=1e-8 * scale)


def test_taylor_low_order_terms(small_problem):
    # c0 is the loss, c1 is the directional derivative <grad, V>
    data, b, shape = small_problem
    rng = np.random.default_rng(6)
    w = random_weights(shape, rng, scale=0.5)
    v = random_direction(shape, rng)
    c = ls.taylor_coeffs(w, v, b)
    assert c[0] == pytest.approx(ls.loss(w, b), rel=1e-12)
    g = ls.gradient(w, b)
    inner = sum(float(np.sum(G * V)) for G, V in zip(g.layers, v.layers))
    assert c[1] == pytest.approx(inner, rel=1e-9)


def test_taylor_shape_mismatch(small_problem):
    _, b, shape = small_problem
    rng = np.random.default_rng(1)
    w = random_weights(shape, rng)
    other = ls.NetworkShape((6, 3, 3, 4))
    with pytest.raises(ls.InvalidShape):
        ls.taylor_coeffs(w, random_direction(other, rng), b)


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
    assert c2 == pytest.approx(ls.taylor_coeffs(w, v, b)[2], rel=1e-10)
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


@pytest.mark.parametrize("mode", ["dense", "probe"])
@pytest.mark.parametrize("tol", [float("inf"), float("nan"), -1.0])
def test_hessian_min_eig_refuses_a_negative_or_non_finite_tolerance(small_problem, mode, tol):
    # inf would accept the first Ritz value; NaN and -1 could never stop the
    # probe, which would run PROBE_MAXITER steps and raise ProbeNotConverged.
    data, b, shape = small_problem
    w = ls.build_example_family(2, "non_tightened", b, shape)
    with pytest.raises(ValueError, match="probe tolerance must be finite and nonnegative"):
        ls.hessian_min_eig(w, data, mode=mode, tol=tol)


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


@pytest.mark.parametrize("variant", ["tightened", "non_tightened"])
def test_probe_matches_the_dense_spectrum_at_depth_8(variant):
    # One Gram-Schmidt pass per step, a second only on cancellation: the
    # probe still finds lambda_min (0 at the tightened point, negative at
    # the strict one), repeats bit for bit, and returns a unit Ritz vector
    # with a small residual.
    data = ls.generate_gaussian_data(8, 4, 60, seed=7)
    shape = ls.NetworkShape((8,) * 8 + (4,))
    w = ls.build_example_family(2, variant, ls.build_sigma_bundle(data), shape,
                                interior="identity")
    M = ls.hessian_dense(w, data)
    dense = float(np.linalg.eigvalsh(M)[0])
    lam, vec = ls.hessian_min_eig(w, data, mode="probe", return_vector=True)
    assert (dense < -1.0) == (variant == "non_tightened")
    assert lam == pytest.approx(dense, abs=1e-6)
    assert ls.hessian_min_eig(w, data, mode="probe") == lam
    x = _flat(vec.layers)
    assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-10)
    assert np.linalg.norm(M @ x - lam * x) <= 1e-5 * np.linalg.norm(M, 2)


@pytest.mark.parametrize("dims", [(6, 5, 5, 4), (7, 6, 5, 6, 4)])
@pytest.mark.parametrize("variant", ["tightened", "non_tightened"])
def test_dense_lambda_min_does_not_depend_on_return_vector(dims, variant):
    # One eigensolver: eigvalsh and eigh differ in the last bits.
    data = ls.generate_gaussian_data(dims[0], dims[-1], 30, seed=0)
    shape = ls.NetworkShape(dims)
    w = ls.build_example_family(2, variant, ls.build_sigma_bundle(data), shape)
    assert ls.hessian_min_eig(w, data) == ls.hessian_min_eig(w, data, return_vector=True)[0]


def _count_matvecs(monkeypatch) -> list:
    matvecs = []
    matvec = CurvatureCache.hessian_matvec

    def counted(self, x):
        matvecs.append(1)
        return matvec(self, x)

    monkeypatch.setattr(CurvatureCache, "hessian_matvec", counted)
    return matvecs


@pytest.mark.parametrize("cap", [2, 5, 7])
def test_probe_is_capped_and_raises_a_library_error(monkeypatch, deep_problem, cap):
    # The tridiagonal is solved every _RITZ_STRIDE steps and always at the
    # cap, so caps off the stride (5, 7) stop there too.
    data, b, shape = deep_problem
    w = ls.build_example_family(2, "tightened", b, shape)  # converges in 18 steps
    matvecs = _count_matvecs(monkeypatch)
    monkeypatch.setattr(curvature, "PROBE_MAXITER", cap)
    for return_vector in (False, True):
        with pytest.raises(ls.ProbeNotConverged):
            ls.hessian_min_eig(w, data, mode="probe", return_vector=return_vector)
    assert len(matvecs) == 2 * cap


def test_probe_converging_at_a_cap_off_the_stride_returns(monkeypatch, deep_problem):
    # This probe's Ritz residual first meets tol at step 16, between the
    # solves of steps 15 and 18; the solve at a cap of 17 returns it.
    data, b, shape = deep_problem
    w = ls.build_example_family(2, "tightened", b, shape)
    free = ls.hessian_min_eig(w, data, mode="probe")
    matvecs = _count_matvecs(monkeypatch)
    monkeypatch.setattr(curvature, "PROBE_MAXITER", 17)
    assert ls.hessian_min_eig(w, data, mode="probe") == pytest.approx(free, abs=1e-6)
    assert len(matvecs) <= 17


def _diagonal_operator(eigs):
    matvecs = []

    def matvec(x):
        matvecs.append(1)
        return eigs * x

    return matvec, matvecs


def _assert_ritz_pair(eigs, lam, x, tol):
    assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-10)
    assert np.linalg.norm(eigs * x - lam * x) <= 10 * tol * np.abs(eigs).max()


def test_lanczos_finds_a_multiple_zero_eigenvalue():
    # lambda_min = 0 with multiplicity 20 among 180 positive eigenvalues.
    eigs = np.random.default_rng(5).permutation(np.r_[np.zeros(20), np.linspace(0.5, 10.0, 180)])
    matvec, _ = _diagonal_operator(eigs)
    tol = 1e-8
    lam, x = curvature._lanczos_min(matvec, eigs.size, tol)
    assert abs(lam) <= tol * np.abs(eigs).max()
    _assert_ritz_pair(eigs, lam, x, tol)


@pytest.mark.parametrize("distinct", [2, 3])
def test_lanczos_stops_on_an_invariant_krylov_space(distinct):
    # With `distinct` eigenvalues the Krylov space of any start vector is
    # invariant after that many steps, and beta_k <= 1e-12 max|theta| stops
    # the probe there, also at a step where the tridiagonal is not due for
    # its solve (2 is not a multiple of _RITZ_STRIDE).  At tol = 0 that is
    # the only rule that can stop it.
    eigs = np.repeat([-3.0, 1.0, 4.0][:distinct], 4)
    matvec, matvecs = _diagonal_operator(eigs)
    tol = 1e-10
    for stop in (tol, 0.0):
        matvecs.clear()
        lam, x = curvature._lanczos_min(matvec, eigs.size, stop)
        assert len(matvecs) == distinct
        assert lam == pytest.approx(-3.0, abs=10 * tol * 4.0)
        _assert_ritz_pair(eigs, lam, x, tol)


@pytest.fixture(scope="module")
def depth16_point():
    """H = 16 with widths 3."""
    shape = ls.NetworkShape((4,) + (3,) * 15 + (3,))
    data = ls.generate_gaussian_data(4, 3, 20, seed=4)
    w = random_weights(shape, np.random.default_rng(50), scale=0.8)
    return data, shape, w


def test_c2_at_depth_16_matches_second_difference(depth16_point):
    data, shape, w = depth16_point
    rng = np.random.default_rng(51)
    for _ in range(4):
        v = random_direction(shape, rng)
        sd = second_difference_c2(list(w.layers), list(v.layers), data.X, data.Y)
        assert ls.c2_value(w, v, data) == pytest.approx(sd, rel=1e-4, abs=1e-4)


@pytest.fixture(scope="module")
def depth24_point():
    """The non-tightened example of widths 20 at depth 24, r = 2."""
    data = ls.generate_gaussian_data(20, 6, 60, seed=0)
    shape = ls.NetworkShape((20,) * 24 + (6,))
    return data, shape, ls.build_example_family(2, "non_tightened", ls.build_sigma_bundle(data),
                                                shape, interior="identity")


@pytest.mark.parametrize("point", ["depth16_point", "depth24_point"])
def test_taylor_is_exact_at_depth(request, point):
    # The expansion has no depth limit.  Its c_0 and c_2 take the forms of
    # loss and c2_value, so they are theirs bit for bit.
    data, shape, w = request.getfixturevalue(point)
    b = ls.build_sigma_bundle(data)
    rng = np.random.default_rng(59)
    for _ in range(2):
        v = ls.Direction([V / np.sqrt(V.shape[1]) for V in random_direction(shape, rng).layers],
                         shape)
        c = ls.taylor_coeffs(w, v, b)
        assert len(c) == 2 * shape.H + 1
        assert c[0] == ls.loss(w, b) and c[2] == ls.c2_value(w, v, data)
        for t in (-0.3, -0.05, 0.1, 0.3):
            ref = line_loss(list(w.layers), list(v.layers), data.X, data.Y, t)
            assert polyval(t, c) == pytest.approx(ref, rel=1e-9)


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
    c = ls.taylor_coeffs(w, wit.direction, b)
    # the line is exactly L + (lambda_j - lambda_i) t^2 + lambda_i t^4
    assert c[2] == pytest.approx(wit.c2_predicted, rel=1e-8)
    assert c[4] == pytest.approx(b.lambdas[1], rel=1e-8)
    others = np.delete(c, [0, 2, 4])
    assert np.abs(others).max() < 1e-8 * (1 + np.abs(c).max())


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
        for p in all_pivots_sweep(list(w.layers), b.sigma_xy, len(spec.support)):
            if p.tightened:
                continue
            try:
                wit = ls.witness_untightened(w, b, spec.support, (p.i, p.j))
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
        for p in all_pivots_sweep(list(w.layers), b.sigma_xy, 2):
            if p.tightened:
                continue
            wit = ls.witness_untightened(w, b, spec.support, (p.i, p.j))
            rot = ls.witness_untightened(w_rot, b, spec.support, (p.i, p.j))
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
        for p in all_pivots_sweep(list(w.layers), b.sigma_xy, 2):
            if p.tightened or p.i != p.j + 1:
                continue
            rotate[0] = False
            try:
                wit = ls.witness_untightened(w, b, spec.support, (p.i, p.j))
            except ls.NotApplicable:
                continue
            rotate[0] = True
            for _ in range(3):
                rot = ls.witness_untightened(w, b, spec.support, (p.i, p.j))
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


def test_ft_st_refuses_the_non_tightened_family_at_depth_24():
    # A floor of the product of the layers' Frobenius norms, 93.6, cut away
    # the global map's singular values 0.44 and 0.42 at this point, which
    # then failed the canonical block equations of support ().
    data = ls.generate_gaussian_data(20, 6, 200, seed=1)
    b = ls.build_sigma_bundle(data)
    shape = ls.NetworkShape((20,) * 24 + (6,))
    w = ls.build_example_family(2, "non_tightened", b, shape, interior="identity")
    with pytest.raises(ls.NotTightened):
        ls.ft_st_decomposition(w, random_direction(shape, np.random.default_rng(0)), b, data)


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


def _count_tightened(monkeypatch):
    calls = []
    real = curvature._tightened

    def counted(w, bundle):
        calls.append(bundle)
        return real(w, bundle)

    monkeypatch.setattr(curvature, "_tightened", counted)
    return calls


def test_ft_st_analyses_a_point_once_per_bundle(monkeypatch, deep_problem):
    data, b, shape = deep_problem
    w = ls.build_example_family(2, "tightened", b, shape)
    rng = np.random.default_rng(43)
    dirs = [random_direction(shape, rng) for _ in range(3)]
    calls = _count_tightened(monkeypatch)
    decs = [ls.ft_st_decomposition(w, v, b, data) for v in dirs]
    assert len(calls) == 1
    fresh = [ls.ft_st_decomposition(ls.Weights(w.layers, shape), v, b, data) for v in dirs]
    assert len(calls) == 4
    for dec, ref in zip(decs, fresh):
        assert dec.a1 == ref.a1 and dec.structure == ref.structure
        for name in ("A2", "A3", "A4"):
            assert np.array_equal(getattr(dec, name), getattr(ref, name))
    # An equal bundle that is another object is analysed afresh, once.
    b2 = ls.build_sigma_bundle(data)
    for v in dirs:
        ls.ft_st_decomposition(w, v, b2, data)
    assert len(calls) == 5 and calls[-1] is b2


def test_ft_st_keeps_the_certificate_factors_per_bundle(deep_problem):
    # Two directions with one bundle, then a second bundle for the same
    # weights, each against fresh Weights.  The second bundle scales Y along
    # the unused eigenvectors: the point stays canonical and tightened, but
    # lambda_Q changes, and with it delta_Q and the eigenvalue gaps, so
    # factors kept from the first bundle would show in a1 and A3.
    data, b, shape = deep_problem
    w = ls.build_example_family(2, "tightened", b, shape)
    data2 = ls.DataMatrices(data.X, b.U @ np.diag([1.0, 1.0, 0.9, 0.8]) @ b.U.T @ data.Y)
    b2 = ls.build_sigma_bundle(data2)
    rng = np.random.default_rng(46)
    dirs = [random_direction(shape, rng) for _ in range(2)]
    decs = {}
    for bundle, dat in ((b, data), (b2, data2)):
        for k, v in enumerate(dirs):
            dec = decs[bundle is b2, k] = ls.ft_st_decomposition(w, v, bundle, dat)
            ref = ls.ft_st_decomposition(ls.Weights(w.layers, shape), v, bundle, dat)
            assert dec.a1 == ref.a1 and dec.structure == ref.structure
            for name in ("A2", "A3", "A4"):
                assert np.array_equal(getattr(dec, name), getattr(ref, name))
    assert w._tightened[0]() is b2
    for k in range(2):
        assert decs[False, k].a1 != decs[True, k].a1
        assert not np.allclose(decs[False, k].A3, decs[True, k].A3)


def test_ft_st_keeps_nothing_for_a_point_that_fails(monkeypatch, deep_problem):
    data, b, shape = deep_problem
    w = ls.build_example_family(2, "non_tightened", b, shape)
    v = random_direction(shape, np.random.default_rng(44))
    calls = _count_tightened(monkeypatch)
    for n in (1, 2):
        with pytest.raises(ls.NotTightened):
            ls.ft_st_decomposition(w, v, b, data)
        assert len(calls) == n and w._tightened is None


def test_ft_st_does_not_keep_its_bundle_alive(deep_problem):
    data, _, shape = deep_problem
    bundle = ls.build_sigma_bundle(data)
    w = ls.build_example_family(2, "tightened", bundle, shape)
    ls.ft_st_decomposition(w, random_direction(shape, np.random.default_rng(45)), bundle, data)
    ref = weakref.ref(bundle)
    assert w._tightened is not None
    del bundle
    gc.collect()
    assert ref() is None and w._tightened is not None


def _depth_8_point():
    # Z_4 = Z_5 = 0, Z_8 Z_7 Z_6 = 0 and Z_3 Z_2 Z_1 Sigma_XY U_Q = 0 while
    # Z_8 Z_7 and Z_2 Z_1 Sigma_XY U_Q are nonzero, so p = 6 and q = 3: the
    # certificate relies on the identities of W_{i-1}..W_2 for i = 6..8 and of
    # W_7..W_{i+1} for i = 1..3.  Adjacent widths differ, so a product taken on the wrong side
    # fails.  Returns the data, bundle, shape, weights (r = 1) and the
    # generator that drew them, for the directions.
    data = ls.generate_gaussian_data(6, 4, 50, seed=3)
    b = ls.build_sigma_bundle(data)
    shape = ls.NetworkShape((6, 5, 6, 5, 6, 5, 5, 6, 4))
    rng = np.random.default_rng(7)
    z = [rng.standard_normal(z_block_shape(shape, 1, h)) for h in range(1, 9)]
    z[3][:] = z[4][:] = 0.0
    N = z[1] @ z[0] @ b.sigma_xy @ b.U[:, 1:]
    z[2] -= z[2] @ N @ np.linalg.pinv(N)
    K = z[7] @ z[6]
    z[5] -= np.linalg.pinv(K) @ K @ z[5]
    w = ls.build_critical_point(CriticalPointSpec(support=(1,), z_blocks=tuple(z)), b, shape)
    return data, b, shape, w, rng


def test_ft_st_at_depth_8_with_both_identity_ranges():
    data, b, shape, w, rng = _depth_8_point()
    r = 1
    assert ls.classify(w, b, data).verdict == "non_strict_saddle"
    for _ in range(3):
        v = random_direction(shape, rng)
        dec = ls.ft_st_decomposition(w, v, b, data)
        assert (dec.structure.p, dec.structure.q) == (6, 3)
        A2, A4 = m_column_ftst(w.layers, v.layers, data.X, data.Y, r, 6, 3)
        assert float(np.sum(dec.A2**2)) == pytest.approx(float(np.sum(A2**2)), rel=1e-9)
        assert np.allclose(dec.A4, A4, rtol=1e-9, atol=1e-9 * np.abs(A4).max())
        assert dec.c2 == pytest.approx(ls.c2_value(w, v, data), rel=1e-8)
        assert dec.c2 >= 0.0 and dec.a1 >= 0.0


@pytest.mark.parametrize("a", [1e-6, 1e6])
@pytest.mark.parametrize("b", [1e-6, 1e6])
def test_ft_st_at_depth_8_under_a_change_of_units(a, b):
    # X -> aX, Y -> bY and W_1 -> (b/a) W_1 keep the point canonical with the
    # same Z chains up to the factor b/a on Z_1, so (p, q) stays (6, 3); along
    # a direction whose layer 1 scales the same way, c2 scales by b^2.
    data, bundle, shape, w, rng = _depth_8_point()
    scaled = ls.DataMatrices(data.X * a, data.Y * b)

    def covariant(s):
        return type(s)([s.layer(1) * (b / a)] + list(s.layers[1:]), shape)

    w_s, bundle_s = covariant(w), ls.build_sigma_bundle(scaled)
    for _ in range(3):
        v = random_direction(shape, rng)
        dec = ls.ft_st_decomposition(w, v, bundle, data)
        dec_s = ls.ft_st_decomposition(w_s, covariant(v), bundle_s, scaled)
        assert (dec_s.structure.p, dec_s.structure.q) == (6, 3)
        assert dec_s.c2 == pytest.approx(b**2 * dec.c2, rel=1e-8)


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
    # c2 needs E = W_H..W_1 Sigma_XX - Sigma_YX (the residual times X^T)
    # alone; the prefixes and adjoints come with the first Hessian-vector
    # product, and the adjoint of the last layer is E itself.
    data, shape, w = depth16_point
    rng = np.random.default_rng(53)
    cache = CurvatureCache(w, data)
    assert "P" not in vars(cache) and "B" not in vars(cache)
    sigma_xx, sigma_yx = data.X @ data.X.T, data.Y @ data.X.T
    assert np.allclose(cache.E, ls.global_map(w) @ sigma_xx - sigma_yx, rtol=1e-12, atol=1e-12)
    v = random_direction(shape, rng)
    c2 = cache.c2(v)
    assert "P" not in vars(cache) and "B" not in vars(cache)
    cache.hessian_matvec(_flat(v.layers))
    assert cache.B[shape.H] is cache.E
    assert cache.P[shape.H] is ls.global_map(w)
    assert ls.c2_value(w, v, data) == cache.c2(v) == c2


def _flat(mats):
    return np.concatenate([M.ravel() for M in mats])


def _old_line_orders(w, v, order):
    # The recurrence before A_0 was read from the product table: A_0 is
    # multiplied out again at every layer.
    A = [w.layers[0], v.layers[0]]
    for Wh, Vh in zip(w.layers[1:], v.layers[1:]):
        new = [Wh @ A[0]]
        for k in range(1, len(A)):
            new.append(Wh @ A[k] + Vh @ A[k - 1])
        if len(A) <= order:
            new.append(Vh @ A[-1])
        A = new
    return A


def test_line_orders_read_the_prefix_table_bit_for_bit(monkeypatch, deep_problem, depth16_point):
    data, _, shape = deep_problem
    rng = np.random.default_rng(56)
    deep = ls.generate_gaussian_data(20, 6, 200, seed=57)
    deep_shape = ls.NetworkShape((20,) * 8 + (6,))
    cases = [(data, random_weights(shape, rng, scale=0.7)), depth16_point[::2],
             (deep, ls.build_example_family(2, "non_tightened", ls.build_sigma_bundle(deep),
                                            deep_shape, interior="identity"))]

    def values(w, vs, data, b):
        return ([ls.c2_value(w, v, data) for v in vs]
                + [c for v in vs for c in ls.taylor_coeffs(w, v, b)])

    for data, w in cases:
        b = ls.build_sigma_bundle(data)
        vs = [random_direction(w.shape, rng) for _ in range(3)]
        new = values(w, vs, data, b)
        with monkeypatch.context() as patch:
            patch.setattr(curvature, "_line_orders", _old_line_orders)
            assert values(w, vs, data, b) == new


def _hessian_cases():
    rng = np.random.default_rng(58)
    cases = []
    for dims, scale in [((3, 1, 4, 4, 4, 2), 0.8),  # a width-1 hidden layer
                        ((5, 2, 7, 7, 1), 0.6),  # d_y = 1
                        ((12, 3, 3, 12, 2), 0.6),  # d_x wider than the hidden layers
                        ((5, 4, 3), 0.8),  # H = 2
                        ((5, 4, 3), 0.0),  # zero weights at H = 2
                        ((3, 4, 4, 2), 0.0)]:  # zero weights: the Hessian is exactly 0
        shape = ls.NetworkShape(dims)
        data = ls.generate_gaussian_data(dims[0], dims[-1], 30, seed=len(cases))
        cases.append(pytest.param(data, random_weights(shape, rng, scale=scale),
                                  id=f"{'-'.join(map(str, dims))}-scale{scale}"))
    data = ls.generate_gaussian_data(20, 6, 200, seed=59)
    shape = ls.NetworkShape((20,) * 8 + (6,))  # the depth-8 deep_probe shape
    for variant in ("tightened", "non_tightened"):
        w = ls.build_example_family(2, variant, ls.build_sigma_bundle(data), shape,
                                    interior="identity")
        cases.append(pytest.param(data, w, id=f"deep_probe-{variant}"))
    return cases


@pytest.mark.parametrize("data, w", _hessian_cases())
def test_hessian_matvec_matches_the_layerwise_oracle(data, w):
    # The fused passes and stacked blocks hold to one product per term, and
    # the operator they apply is symmetric.
    rng = np.random.default_rng(60)
    cache = CurvatureCache(w, data)
    us = [random_direction(w.shape, rng) for _ in range(3)]
    hus = []
    for u in us:
        ref = _flat(layerwise_hessian_matvec(w.layers, cache.sigma_xx, cache.sigma_yx, u.layers))
        hu = cache.hessian_matvec(_flat(u.layers))
        assert np.linalg.norm(hu - ref) <= 1e-12 * np.linalg.norm(ref)
        hus.append(hu)
    flats = [_flat(u.layers) for u in us]
    for a, b in [(0, 1), (1, 2)]:
        u, hv, v, hu = flats[a], hus[b], flats[b], hus[a]
        assert abs(u @ hv - v @ hu) <= 1e-12 * np.linalg.norm(u) * np.linalg.norm(hv)


def test_hessian_matvec_requires_one_parameter_vector(deep_problem):
    data, _, shape = deep_problem
    w = random_weights(shape, np.random.default_rng(61), scale=0.5)
    cache = CurvatureCache(w, data)
    x = np.ones(shape.n_params)
    for bad in (np.append(x, [1.0, 2.0]), x[:-1], np.stack([x, x])):
        with pytest.raises(ls.InvalidShape):
            cache.hessian_matvec(bad)


def _assert_matches_m_column_form(w, data, directions):
    cache = CurvatureCache(w, data)
    for v in directions:
        ref = m_column_c2(w.layers, v.layers, data.X, data.Y)
        assert cache.c2(v) == pytest.approx(ref, rel=1e-9)
        ref = _flat(m_column_hessian_matvec(w.layers, v.layers, data.X, data.Y))
        hv = cache.hessian_matvec(_flat(v.layers))
        assert np.allclose(hv, ref, rtol=1e-9, atol=1e-9 * np.abs(ref).max())


def test_curvature_matches_m_column_form_at_m_3000():
    data = ls.generate_gaussian_data(10, 4, 3000, seed=13)
    b = ls.build_sigma_bundle(data)
    shape = ls.NetworkShape((10, 8, 8, 8, 4))
    rng = np.random.default_rng(14)
    points = [random_weights(shape, rng, scale=0.5)]
    points += [ls.build_example_family(2, variant, b, shape)
               for variant in ("tightened", "non_tightened")]
    for w in points:
        _assert_matches_m_column_form(w, data, [random_direction(shape, rng) for _ in range(3)])


def test_curvature_matches_m_column_form_at_depth_16(depth16_point):
    data, shape, w = depth16_point
    rng = np.random.default_rng(54)
    _assert_matches_m_column_form(w, data, [random_direction(shape, rng) for _ in range(4)])


def test_curvature_reads_only_second_moments(deep_problem, depth16_point):
    # The d_x-column surrogate (L, K^T), Sigma_XX = L L^T and
    # K = L^{-1} Sigma_XY, has the moments Sigma_XX and Sigma_YX of (X, Y)
    # (not Sigma_YY, which c2 and the Hessian do not read).
    data, _, shape = deep_problem
    rng = np.random.default_rng(55)
    cases = [(data, shape, random_weights(shape, rng, scale=0.7)), depth16_point]
    for data, shape, w in cases:
        b = ls.build_sigma_bundle(data)
        surrogate = ls.DataMatrices(b.L, np.linalg.solve(b.L, b.sigma_xy).T)
        assert surrogate.m == data.d_x
        full, small = CurvatureCache(w, data), CurvatureCache(w, surrogate)
        for _ in range(3):
            v = random_direction(shape, rng)
            assert ls.c2_value(w, v, surrogate) == pytest.approx(ls.c2_value(w, v, data),
                                                                 rel=1e-10)
            ref = full.hessian_matvec(_flat(v.layers))
            assert np.allclose(small.hessian_matvec(_flat(v.layers)), ref,
                               rtol=1e-10, atol=1e-10 * np.abs(ref).max())


# -- every raise of the module fires; the probe's basis growth ----------------

def test_probe_basis_grows_to_the_default_result(monkeypatch, deep_problem):
    # A basis of 2 rows doubles four times, to 32 rows, within this probe's
    # 18 steps; the growth copies the rows, so (theta, x) are bitwise those
    # of the default basis, which needs no growth.
    data, b, shape = deep_problem
    w = ls.build_example_family(2, "tightened", b, shape)
    want = ls.hessian_min_eig(w, data, mode="probe", return_vector=True)
    monkeypatch.setattr(curvature, "_BASIS_BYTES", 2 * 8 * shape.n_params)
    lam, x = ls.hessian_min_eig(w, data, mode="probe", return_vector=True)
    assert lam == want[0]
    assert all(np.array_equal(a, c) for a, c in zip(x.layers, want[1].layers))


def test_curvature_cache_refuses_weights_of_other_data(small_problem):
    data, _, _ = small_problem
    w = random_weights(ls.NetworkShape((5, 5, 4)), np.random.default_rng(0))
    with pytest.raises(ls.InvalidShape, match="weights incompatible with data"):
        CurvatureCache(w, data)


def test_untightened_witness_refusals(small_problem):
    _, b, shape = small_problem
    tight = ls.build_example_family(2, "tightened", b, shape)
    with pytest.raises(ls.NotApplicable, match="support already uses every output"):
        ls.witness_untightened(tight, b, (1, 2, 3, 4), (3, 1))
    # U_Q^T W_3 = U_Q^T [U_S, 0] vanishes to rounding, and so does T.
    with pytest.raises(ls.NotApplicable, match="pivot data block vanishes outside the support"):
        ls.witness_untightened(tight, b, (1, 2), (2, 1))
    # A square W_3 of full rank leaves no kernel past the pivot (3, 2).
    rng = np.random.default_rng(1)
    wide = ls.Weights([rng.standard_normal((5, 6)), rng.standard_normal((4, 5)),
                       rng.standard_normal((4, 4))], ls.NetworkShape((6, 5, 4, 4)))
    with pytest.raises(ls.NotApplicable, match="upper layers past the pivot have trivial kernel"):
        ls.witness_untightened(wide, b, (1,), (3, 2))
    # ker(W_3 W_2) = ker(W_2) = span(e_4, e_5): W_2 annihilates the kernel.
    W2 = np.diag([1.0, 1.0, 1.0, 0.0, 0.0])
    flat = ls.Weights([rng.standard_normal((5, 6)), W2, rng.standard_normal((4, 5))], shape)
    with pytest.raises(ls.NotApplicable, match="kernel past the pivot is annihilated"):
        ls.witness_untightened(flat, b, (1,), (3, 1))


def test_tightened_structure_requires_depth_three(shallow_problem):
    data, b, shape = shallow_problem
    w = random_weights(shape, np.random.default_rng(0))
    with pytest.raises(ls.InvalidShape, match="tightened structure requires depth H >= 3"):
        ls.ft_st_decomposition(w, random_direction(shape, np.random.default_rng(1)), b, data)


def test_tightened_structure_without_p_or_q_is_inconsistent(monkeypatch, deep_problem):
    # Tightness and the definitions of p and q guarantee both indices (see
    # _tightened); only zero tests that disagree with each other can miss
    # them, which these chains fake: no pivot is untightened, and no chain
    # is zero (p), or only the suffixes are (q).
    _, b, shape = deep_problem
    w = ls.build_example_family(2, "tightened", b, shape)

    class NoneZero(curvature._ZChains):
        def untightened_pivot(self):
            return None

        def zero(self, P, factor_norms):
            return False

    class SuffixesZero(NoneZero):
        def zero(self, P, factor_norms):
            return any(P is S for S in self.suf)

    for chains, match in [(NoneZero, "no rank-collapse index p found above layer 2"),
                          (SuffixesZero, "no rank-collapse index q found below layer H-1")]:
        monkeypatch.setattr(curvature, "_ZChains", chains)
        with pytest.raises(ls.InternalInconsistency, match=match):
            curvature._tightened(w, b)

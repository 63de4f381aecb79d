from dataclasses import fields

import numpy as np
import pytest

import linsaddle as ls
from linsaddle import data_model
from linsaddle.cli import main
from linsaddle.data_model import read_matrix_csv, write_matrix_csv

from oracles import full_svd_bundle, loop_svd_signs, reference_eigensystem


def test_generate_is_deterministic():
    a = ls.generate_gaussian_data(5, 3, 20, seed=7)
    b = ls.generate_gaussian_data(5, 3, 20, seed=7)
    assert np.array_equal(a.X, b.X) and np.array_equal(a.Y, b.Y)
    c = ls.generate_gaussian_data(5, 3, 20, seed=8)
    assert not np.array_equal(a.X, c.X)


def test_generate_rejects_bad_dims():
    with pytest.raises(ls.InvalidShape):
        ls.generate_gaussian_data(3, 5, 20, seed=0)  # d_y > d_x
    with pytest.raises(ls.InvalidShape):
        ls.generate_gaussian_data(5, 3, 4, seed=0)  # m < d_x


def test_moments_that_overflow_are_refused(tmp_path, caplog):
    # Finite entries near 1e200 make X X^T overflow: the assumption check,
    # the bundle and the CLI refuse the data (exit 2) instead of cutting
    # ranks of infinite moments.
    data = ls.generate_gaussian_data(6, 4, 30, seed=0)
    big = ls.DataMatrices(X=1e200 * data.X, Y=data.Y)
    with np.errstate(over="ignore"):
        for build in (ls.check_assumption_h, ls.build_sigma_bundle):
            with pytest.raises(ValueError, match="second moments .* are not finite"):
                build(big)
        write_matrix_csv(tmp_path / "X.csv", big.X)
        write_matrix_csv(tmp_path / "Y.csv", big.Y)
        w = tmp_path / "w.json"
        w.write_text(ls.weights_to_json(ls.Weights(
            [np.ones((5, 6)), np.ones((5, 5)), np.ones((4, 5))], ls.NetworkShape((6, 5, 5, 4)))))
        code = main(["classify", "--x", str(tmp_path / "X.csv"), "--y", str(tmp_path / "Y.csv"),
                     "--weights", str(w)])
    assert code == 2 and "not finite" in caplog.text


def test_bundle_keeps_the_norm_of_sigma_xy_from_the_rank_cut(small_problem):
    _, b, _ = small_problem
    assert isinstance(b.sigma_xy_norm, float)
    assert b.sigma_xy_norm == pytest.approx(np.linalg.norm(b.sigma_xy, 2), rel=1e-14)


def test_assumption_report_on_good_data(small_problem):
    data, _, _ = small_problem
    rep = ls.check_assumption_h(data)
    assert rep.holds and not rep.failed()


def test_assumption_fails_on_degenerate_data():
    # duplicated rows of Y make Sigma_XY rank deficient? use rank-deficient X
    rng = np.random.default_rng(0)
    base = rng.standard_normal((1, 20))
    X = np.vstack([base, base, base])  # rank 1
    Y = rng.standard_normal((2, 20))
    rep = ls.check_assumption_h(ls.DataMatrices(X=X, Y=Y))
    assert not rep.holds
    with pytest.raises(ls.AssumptionViolated):
        ls.build_sigma_bundle(ls.DataMatrices(X=X, Y=Y))


def test_bundle_against_reference_eigensystem(small_problem):
    data, bundle, _ = small_problem
    evals, evecs = reference_eigensystem(data.X, data.Y)
    assert np.allclose(bundle.lambdas, evals, rtol=1e-10, atol=1e-10)
    # eigenvectors match up to sign
    for k in range(bundle.d_y):
        dot = abs(float(evecs[:, k] @ bundle.U[:, k]))
        assert dot == pytest.approx(1.0, abs=1e-8)


def test_bundle_svd_structure(small_problem):
    # U and sqrt(lambda) are the left factor and the singular values of the
    # full SVD sigma_half = U delta V^T, sign convention included.
    data, b, _ = small_problem
    sigma_half, U, delta, V = full_svd_bundle(data.X, data.Y)
    assert np.allclose(U @ delta @ V.T, sigma_half, atol=1e-10)
    assert np.allclose(b.U, U, atol=1e-10)
    assert np.allclose(np.sqrt(b.lambdas), np.diag(delta), rtol=1e-10)
    assert np.allclose(b.U.T @ b.U, np.eye(b.d_y), atol=1e-10)
    assert np.all(np.diff(b.lambdas) < 0)  # strictly decreasing
    assert b.lambdas[-1] > 0
    # Sigma = U diag(lambda) U^T is sigma_half sigma_half^T
    sigma = (b.U * b.lambdas) @ b.U.T
    assert np.allclose(sigma, sigma_half @ sigma_half.T, atol=1e-8)
    # L is the lower-triangular Cholesky factor of Sigma_XX
    assert np.array_equal(b.L, np.tril(b.L))
    assert np.allclose(b.L @ b.L.T, b.sigma_xx, atol=1e-10 * np.abs(b.sigma_xx).max())


def test_sign_convention_is_deterministic(small_problem):
    data, b, _ = small_problem
    b2 = ls.build_sigma_bundle(data)
    assert np.array_equal(b.U, b2.U) and np.array_equal(b.lambdas, b2.lambdas)
    # first non-negligible entry of each U column is nonnegative
    for k in range(b.d_y):
        col = b.U[:, k]
        nz = np.nonzero(np.abs(col) > 1e-12)[0]
        assert col[nz[0]] >= 0


def test_sign_fix_matches_the_column_loop():
    # Random columns, and near-degenerate ones whose leading entries are below
    # 1e-12 (or below 1e-12 of a column norm above 1) and so do not count.
    rng = np.random.default_rng(8)
    U = rng.standard_normal((6, 9))
    U[:3, 1] = [-1e-13, 4e-13, 0.7]  # kept: its first entry that counts is 0.7
    U[:4, 2] = [5e-13, -2e-13, 0.0, -0.2]  # flipped
    U[:, 3] *= 1e3
    U[0, 3] = 1e-10 * np.sign(-U[1, 3])
    U[:, 4] = -1e-13 * rng.random(6)  # no entry counts: left alone
    U[:, 5] = 0.0
    U[0, 6], U[0, 7] = 0.0, -0.0
    P = rng.standard_normal((5, 9))
    got, want = data_model._fix_svd_signs(U), loop_svd_signs(U, P)[0]
    assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))
    assert np.array_equal(got[:, 4], U[:, 4])
    assert not np.array_equal(got, U)  # some column was flipped


def test_assumption_ranks_match_numeric_rank():
    # One batched SVD cuts Sigma_XX and Sigma_XY, each at the threshold of
    # its own shape, on full-rank and on rank-deficient data.
    rng = np.random.default_rng(9)
    base = rng.standard_normal((2, 20))
    for X, Y in [(rng.standard_normal((5, 20)), rng.standard_normal((3, 20))),
                 (np.vstack([base, base, base[:1]]), rng.standard_normal((2, 20))),
                 (rng.standard_normal((4, 20)), np.vstack([base[:1], 2 * base[:1]]))]:
        data = ls.DataMatrices(X=X, Y=Y)
        checks = {c[0]: c for c in ls.check_assumption_h(data).checks}
        sigma_xx, sigma_xy, _ = data_model._moments(data)
        assert checks["sigma_xx_full_rank"][2:] == (ls.numeric_rank(sigma_xx), data.d_x)
        assert checks["sigma_xy_full_rank"][2:] == (ls.numeric_rank(sigma_xy), data.d_y)


def test_sigma_half_identity(small_problem):
    # Sigma_YX Sigma_XX^{-1} X reproduces sigma_half; the certificate's
    # second-moment forms reproduce X V_Q = Sigma_XY U_Q Lambda_Q^{-1/2} and
    # X V_S' V_S'^T = Pi X with Pi = I - X V_Q Lambda_Q^{-1/2} U_Q^T C.
    data, b, _ = small_problem
    sigma_half, _, _, V = full_svd_bundle(data.X, data.Y)
    C = b.sigma_yx_sigma_xx_inv
    assert np.allclose(C @ data.X, sigma_half, atol=1e-8)
    r = 2
    root_q = np.sqrt(b.lambdas[r:])
    XV_Q = b.sigma_xy @ b.U[:, r:] / root_q
    assert np.allclose(XV_Q, data.X @ V[:, r:b.d_y], atol=1e-8)
    keep = list(range(r)) + list(range(b.d_y, data.m))
    Pi = np.eye(b.d_x) - (XV_Q / root_q) @ b.U[:, r:].T @ C
    assert np.allclose(Pi @ data.X, data.X @ V[:, keep] @ V[:, keep].T, atol=1e-8)


def test_bundle_has_no_sample_axis():
    # Every bundle array is d_x- or d_y-sized, and the bundle no longer
    # exposes the m-sized SVD factors; it keeps the sample count as an int.
    m = 500
    data = ls.generate_gaussian_data(6, 4, m, seed=9)
    b = ls.build_sigma_bundle(data)
    assert b.m == data.m
    arrays = {k: v for k, v in vars(b).items() if isinstance(v, np.ndarray)}
    assert set(arrays) == {"sigma_xx", "sigma_xy", "sigma_yx", "sigma_yy", "L", "U",
                           "lambdas"}
    for name, arr in arrays.items():
        assert m not in arr.shape, name
        assert max(arr.shape) <= 6, name
    for gone in ("V", "delta", "sigma_half", "v_q_cols", "v_sprime_cols"):
        assert not hasattr(b, gone)


def test_bundle_arrays_are_read_only():
    # What is derived from a bundle object (the tightened structure kept on
    # weights) stays valid only if the bundle cannot change in place.
    b = ls.build_sigma_bundle(ls.generate_gaussian_data(6, 4, 50, seed=9))
    for f in fields(b):
        if f.name not in ("sigma_xy_norm", "m"):  # the two scalar fields
            with pytest.raises(ValueError):
                getattr(b, f.name)[0] = 0.0


def test_regression_map_is_solved_once_per_bundle():
    b = ls.build_sigma_bundle(ls.generate_gaussian_data(6, 4, 50, seed=9))
    C = b.sigma_yx_sigma_xx_inv
    assert b.sigma_yx_sigma_xx_inv is C and not C.flags.writeable
    assert np.array_equal(C, np.linalg.solve(b.sigma_xx.T, b.sigma_yx.T).T)


def test_bundle_makes_one_pass_over_the_samples(monkeypatch, small_problem):
    data, b, _ = small_problem
    calls = []
    moments = data_model._moments
    monkeypatch.setattr(data_model, "_moments", lambda d: calls.append(d) or moments(d))
    b2 = ls.build_sigma_bundle(data)
    assert len(calls) == 1
    assert np.array_equal(b2.U, b.U) and np.array_equal(b2.sigma_xx, b.sigma_xx)


def test_cholesky_failure_is_an_assumption_violation(monkeypatch, small_problem):
    data, _, _ = small_problem

    def no_factor(a):
        raise np.linalg.LinAlgError("Matrix is not positive definite")

    monkeypatch.setattr(np.linalg, "cholesky", no_factor)
    rep = ls.check_assumption_h(data)
    assert not rep.holds
    assert {c[0] for c in rep.failed()} == {"eigenvalue_gaps", "sigma_invertible"}
    with pytest.raises(ls.AssumptionViolated, match="eigenvalue_gaps"):
        ls.build_sigma_bundle(data)


@pytest.mark.parametrize("a", [1e-4, 1.0, 1e4])
@pytest.mark.parametrize("b", [1e-4, 1.0, 1e4])
def test_assumption_and_lambdas_under_rescaling(a, b):
    # Sigma = Sigma_YX Sigma_XX^{-1} Sigma_XY scales by b^2 under X -> aX,
    # Y -> bY; the assumption, which holds at unit scale, must hold at every
    # scale.
    data = ls.generate_gaussian_data(8, 4, 40, seed=3)
    unit = ls.build_sigma_bundle(data)
    scaled = ls.DataMatrices(a * data.X, b * data.Y)
    assert ls.check_assumption_h(scaled).holds
    bundle = ls.build_sigma_bundle(scaled)
    np.testing.assert_allclose(bundle.lambdas, unit.lambdas * b * b, rtol=1e-8)


def test_csv_roundtrip(tmp_path):
    M = np.random.default_rng(3).standard_normal((4, 7))
    p = tmp_path / "m.csv"
    write_matrix_csv(p, M)
    header = p.read_text().splitlines()[0]
    assert header == "# rows=4 cols=7"
    back = read_matrix_csv(p)
    assert np.array_equal(M, back)  # repr round-trips floats exactly


def test_csv_rejects_bad_header(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("1.0,2.0\n3.0,4.0\n")
    with pytest.raises(ls.InvalidShape):
        read_matrix_csv(p)
    p.write_text("# rows=3 cols=2\n1.0,2.0\n3.0,4.0\n")
    with pytest.raises(ls.InvalidShape, match=r"header says \(3, 2\), got \(2, 2\)"):
        read_matrix_csv(p)


def test_data_matrices_validation():
    with pytest.raises(ls.InvalidShape):
        ls.DataMatrices(X=np.zeros((3, 5)), Y=np.zeros((2, 6)))
    with pytest.raises(ls.InvalidShape):
        ls.DataMatrices(X=np.full((3, 5), np.nan), Y=np.zeros((2, 5)))
    with pytest.raises(ls.InvalidShape, match="X and Y must be 2-D matrices"):
        ls.DataMatrices(X=np.zeros(5), Y=np.zeros((2, 5)))


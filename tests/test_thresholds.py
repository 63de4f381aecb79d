"""Contract tests of the documented thresholds: each takes one point on each
side of its threshold, well clear of any neighbouring one, so that moving the
threshold past either point fails a test."""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import linsaddle as ls
from linsaddle import classifier
from linsaddle.cli import main
from linsaddle.curvature import CurvatureCache
from linsaddle.critical_points import CriticalPointSpec, build_critical_point, z_block_shape
from linsaddle.network import _analysis
from linsaddle.ranktol import criticality_scale


def _zero_blocks(shape, r):
    return [np.zeros(z_block_shape(shape, r, h)) for h in range(1, shape.H + 1)]


@pytest.mark.parametrize("ratio, critical", [(30.0, False), (0.3, True)])
def test_a_z_chain_is_zero_up_to_its_chain_floor(small_problem, ratio, critical):
    # With Z_1 = 0 the only chain of the criticality condition that can be
    # nonzero is G Z_3 Z_2 = delta G e_1 e_1^T, whose factors have norms
    # ||G||, 1 and 1: a cancellation, not a small factor, makes it small.
    # The floor is written out, 100 H eps times the norms' product.
    _, b, shape = small_problem
    G = b.sigma_xy @ b.u_complement((1, 2))
    floor = 100.0 * shape.H * np.finfo(float).eps * np.linalg.norm(G, 2)
    delta = ratio * floor / np.linalg.norm(G[:, 0])
    z = _zero_blocks(shape, 2)
    z[1][:] = np.diag([delta, 1.0, 0.0])
    z[2][0, 0] = 1.0
    spec = CriticalPointSpec(support=(1, 2), z_blocks=tuple(z))
    if critical:
        build_critical_point(spec, b, shape)
    else:
        with pytest.raises(ls.NotCritical, match="G Z_H"):
            build_critical_point(spec, b, shape)


@pytest.mark.parametrize("level, support", [(1 / 30, (1, 2)), (1 / 3, (2,))])
def test_the_support_cut_has_headroom_10_times_the_gradient_level(small_problem, level, support):
    # K = W_3 W_2 = [U_1, U_2 / rho, 0], so U_1 sits at rho relative to the
    # top singular value.  The gradient level, written into the point's
    # analysis record, and tau are synthetic so that only the
    # headroom 10 gn / scale decides whether U_1 is cut.
    _, b, shape = small_problem
    rho = 1e-3
    d = (np.diag([1.0, rho, 1.0, 1.0, 1.0]), np.eye(5))
    spec = CriticalPointSpec(support=(1, 2), z_blocks=tuple(_zero_blocks(shape, 2)), d_blocks=d)
    w = build_critical_point(spec, b, shape)
    _analysis(w, b).gate = (level * rho, 1.0)
    res = ls.associated_support(w, b, tau_crit=10.0)
    assert res.support == support


@pytest.mark.parametrize("t, snapped", [(1e-6, False), (1e-10, True)])
def test_canonical_form_snaps_a_block_at_eps_canon_of_its_layer(small_problem, t, snapped):
    # Z_1 alone is nonzero, at t times the norm of W_1 = [U_S^T C; Z_1]; the
    # point is canonical already, so canonical_form keeps the layers.
    _, b, shape = small_problem
    z = _zero_blocks(shape, 2)
    top = b.u_cols((1, 2)).T @ b.sigma_yx_sigma_xx_inv
    A = np.random.default_rng(40).standard_normal(z[0].shape)
    z[0] = t * np.linalg.norm(top) / np.linalg.norm(A) * A
    w = build_critical_point(CriticalPointSpec(support=(1, 2), z_blocks=tuple(z)), b, shape)
    Z1 = ls.canonical_form(w, b).z_blocks[0]
    if snapped:
        assert not Z1.any()
    else:
        assert np.linalg.norm(Z1 - z[0]) <= 1e-6 * np.linalg.norm(z[0])


def _near_tightened_point(b, shape, k):
    """The tightened example with W_1's signal rows moved by delta E: the
    gradient grows with delta while the rank of every pivot block stays r.
    Then Z_2 = diag(eps, 0, 0), eps = k times the gradient level, adds eps
    to the middle block W_2 of pivot (3, 1), whose outer block Sigma_XY has
    rank d_y > r; the gradient does not see Z_2 because Z_1 and Z_3 are
    zero.  Returns the point, its gradient norm and the level."""
    w = ls.build_example_family(2, "tightened", b, shape)
    layers = [M.copy() for M in w.layers]
    layers[0][:2] += 1e-6 * np.random.default_rng(42).standard_normal((2, shape.d_x))
    w = ls.Weights(layers, shape)
    gn = ls.gradient(w, b).frob_norm()
    level = gn / criticality_scale(w, b)
    assert 1e-9 < level < 1e-5
    layers = [M.copy() for M in w.layers]
    layers[1][2, 2] = k * level
    return ls.Weights(layers, shape), gn, level


@pytest.mark.parametrize("k, verdict", [(30.0, "strict_saddle"), (3.0, "non_strict_saddle")])
def test_approximate_pivot_ranks_cut_at_10_times_the_gradient_level(small_problem, k, verdict):
    data, b, shape = small_problem
    w, gn, _ = _near_tightened_point(b, shape, k)
    res = ls.classify(w, b, data, tau_crit=gn / 10)
    assert res.approximate and res.verdict == verdict


def test_approximate_pivot_ranks_keep_a_looser_caller_tolerance(small_problem):
    # At a relative tolerance of 100 levels the eps = 30 levels of Z_2 are
    # noise: the exact path (tau = 10 gn) says so, and the approximate path
    # (tau = gn / 10) must too, loosening the caller's cut but never
    # tightening it to its own 10 levels.
    data, b, shape = small_problem
    w, gn, level = _near_tightened_point(b, shape, 30.0)
    tol = ls.RankTolerance(relative=100.0 * level)
    for tau, approximate in [(10.0 * gn, False), (gn / 10, True)]:
        res = ls.classify(w, b, data, rank_tol=tol, tau_crit=tau)
        assert (res.approximate, res.verdict) == (approximate, "non_strict_saddle")


@pytest.mark.parametrize("share, ambiguous", [(0.3, True), (0.2, False)])
def test_a_projector_entry_inside_the_band_is_ambiguous(small_problem, share, ambiguous):
    # K = W_3 W_2 = c u e_1^T with u = sqrt(share) U_1 + sqrt(1 - share) U_2,
    # so the projector's diagonal in the eigenbasis is (share, 1 - share, 0, 0).
    # W_1 = e_1 u^T C / c makes the global map u u^T C, which is not critical,
    # and a large c keeps the gradient level, and so the support cut, small;
    # a large tau lets the point through the gradient gate.
    data, b, shape = small_problem
    u = np.sqrt(share) * b.U[:, 0] + np.sqrt(1.0 - share) * b.U[:, 1]
    c, e1 = 1e4, np.eye(5)[0]
    w = ls.Weights([np.outer(e1, u @ b.sigma_yx_sigma_xx_inv / c), c * np.eye(5),
                    np.outer(u, e1)], shape)
    tau = 10.0 * criticality_scale(w, b)
    if ambiguous:
        with pytest.raises(ls.AmbiguousProjector):
            ls.classify(w, b, data, tau_crit=tau)
    else:
        res = ls.associated_support(w, b, tau_crit=tau)
        assert res.support == (2,)
        np.testing.assert_allclose(res.projector_diag, [share, 1.0 - share, 0.0, 0.0], atol=1e-12)


def _band_data(delta, a=1.0, b=1.0):
    """X with orthonormal rows (d_x = 6, m = 40) and Y = M X, so that the
    eigenvalues of Sigma are (1, 1 - delta, 0.5, 0.25) exactly; then
    X -> aX and Y -> bY, which scales them by b^2."""
    rng = np.random.default_rng(0)
    X = np.linalg.qr(rng.standard_normal((40, 6)))[0].T
    U, V = np.linalg.qr(rng.standard_normal((4, 4)))[0], np.linalg.qr(rng.standard_normal((6, 4)))[0]
    M = U @ np.diag(np.sqrt([1.0, 1.0 - delta, 0.5, 0.25])) @ V.T
    return ls.DataMatrices(a * X, b * (M @ X))


def _band_point(data, support):
    shape = ls.NetworkShape((6, 5, 5, 4))
    b = ls.build_sigma_bundle(data)
    spec = CriticalPointSpec(support=support, z_blocks=tuple(_zero_blocks(shape, len(support))))
    return b, build_critical_point(spec, b, shape)


@pytest.mark.parametrize("shift, certified", [(0.0, True), (0.5, True), (2.0, False)])
def test_an_eigenswap_c2_is_certified_by_its_exact_value(monkeypatch, shift, certified):
    # S = {2} swaps lambda_2 out for lambda_1: c2 = -delta exactly, here
    # 1e-9, below the witness threshold -EPS_WITNESS times its size (about
    # -4e-8).  The measured c2 is certified when it agrees with the exact
    # value to that threshold: an exact value moved by half of it still
    # agrees, one moved by twice it does not.
    data = _band_data(1e-9)
    b, w = _band_point(data, (2,))
    witness = classifier.witness_eigenswap

    def moved(w, bundle, S):
        wit = witness(w, bundle, S)
        thr = CurvatureCache(w, bundle).c2_threshold(wit.direction)[1]
        return replace(wit, c2_predicted=wit.c2_predicted - shift * thr)

    monkeypatch.setattr(classifier, "witness_eigenswap", moved)
    if certified:
        res = ls.classify(w, b, data)
        assert res.verdict == "strict_saddle" and res.witness.case == "eigenswap"
        assert res.witness_c2 == pytest.approx(-1e-9, rel=1e-4)
    else:
        with pytest.raises(ls.InternalInconsistency, match="not certifiably negative"):
            ls.classify(w, b, data)


def test_an_eigenswap_c2_that_agrees_but_is_not_negative_is_refused(monkeypatch):
    # Along the zero direction c2 = 0 and its threshold is -0: an exact value
    # of 0 agrees with it, but a c2 of 0 certifies nothing.
    data = _band_data(1e-2)
    b, w = _band_point(data, (2,))
    witness = classifier.witness_eigenswap

    def flat(w, bundle, S):
        wit = witness(w, bundle, S)
        zero = ls.Direction([0.0 * M for M in wit.direction.layers], w.shape)
        return replace(wit, direction=zero, c2_predicted=0.0)

    monkeypatch.setattr(classifier, "witness_eigenswap", flat)
    with pytest.raises(ls.InternalInconsistency, match="not certifiably negative"):
        ls.classify(w, b, data)


VERDICTS = {(1,): "non_strict_saddle", (2,): "strict_saddle", (1, 2): "non_strict_saddle",
            (2, 3): "strict_saddle", (1, 3): "strict_saddle"}


@pytest.mark.parametrize("a, b", [(1.0, 1.0), (1e-3, 1e3), (1e3, 1e-3), (1e-3, 1e-3)])
def test_the_eigen_gap_band_gets_true_verdicts_or_a_refusal(a, b):
    # lambda_1 - lambda_2 = delta b^2 over delta in 10^[-11, -2]: every point
    # gets its verdict, the strict saddle S = {2} with c2 = -delta b^2, or,
    # at a gap the assumption check refuses (EPS_GAP = 1e-10 of lambda_1),
    # AssumptionViolated, which the CLI reports with exit 2.  None raises
    # InternalInconsistency.
    refused = []
    for delta in 10.0 ** np.arange(-11.0, -1.5, 0.5):
        data = _band_data(delta, a, b)
        if not ls.check_assumption_h(data).holds:
            with pytest.raises(ls.AssumptionViolated):
                ls.build_sigma_bundle(data)
            refused.append(delta)
            continue
        for S, verdict in VERDICTS.items():
            bundle, w = _band_point(data, S)
            res = ls.classify(w, bundle, data)
            assert (res.verdict, res.support, res.approximate) == (verdict, S, False), (delta, S)
            if S == (2,):
                assert res.witness_c2 == pytest.approx(-delta * b * b, rel=1e-4)
    assert min(refused) < 2e-11 and max(refused) <= 1e-10  # refused: below EPS_GAP only


def test_the_cli_classifies_a_strict_saddle_in_the_band(tmp_path, capsys):
    # delta = 1e-9: linsaddle classify exited 3 here while the witness was
    # held to the witness threshold.
    data = _band_data(1e-9)
    b, w = _band_point(data, (2,))
    paths = [str(tmp_path / name) for name in ("X.csv", "Y.csv", "w.json")]
    ls.write_matrix_csv(paths[0], data.X)
    ls.write_matrix_csv(paths[1], data.Y)
    Path(paths[2]).write_text(ls.weights_to_json(w))
    code = main(["classify", "--x", paths[0], "--y", paths[1], "--weights", paths[2]])
    res = json.loads(capsys.readouterr().out)
    assert (code, res["verdict"], res["witness"]["case"]) == (0, "strict_saddle", "eigenswap")

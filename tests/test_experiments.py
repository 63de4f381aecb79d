import csv
import json
import math
import warnings

import numpy as np
import pytest

import linsaddle as ls
from linsaddle.experiments import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    DIVERGE_LIMIT,
    HISTOGRAM_BINS,
    EscapeRun,
    _adam_step,
    escape_epoch,
    escape_gate,
    escape_threshold,
    summarize_runs,
    summary_to_json,
    train_runs,
    write_histogram_csv,
    write_runs_csv,
)

from conftest import random_certified_spec, random_weights


SMALL_CFG = dict(dims=(6, 5, 5, 4), m=30, r=2, data_seed=0)


def test_perturb_near_is_deterministic(small_problem):
    _, b, shape = small_problem
    w = random_weights(shape, np.random.default_rng(0))
    a = ls.perturb_near(w, 0.1, seed=5)
    c = ls.perturb_near(w, 0.1, seed=5)
    d = ls.perturb_near(w, 0.1, seed=6)
    for h in range(1, shape.H + 1):
        assert np.array_equal(a.layer(h), c.layer(h))
    assert any(
        not np.array_equal(a.layer(h), d.layer(h)) for h in range(1, shape.H + 1)
    )


def test_perturb_near_scale_semantics(small_problem):
    # noise RMS per entry tracks scale * ||W_h||_F / sqrt(size)
    _, b, shape = small_problem
    w = random_weights(shape, np.random.default_rng(1))
    scale = 0.05
    p = ls.perturb_near(w, scale, seed=0)
    for h in range(1, shape.H + 1):
        diff = p.layer(h) - w.layer(h)
        sigma = scale * np.linalg.norm(w.layer(h)) / np.sqrt(diff.size)
        rms = np.sqrt(np.mean(diff**2))
        assert 0.3 * sigma < rms < 3.0 * sigma


def test_perturb_near_zero_layer_fallback(small_problem):
    _, b, shape = small_problem
    w = ls.Weights(
        [np.zeros(shape.layer_shape(h)) for h in range(1, shape.H + 1)], shape
    )
    p = ls.perturb_near(w, 0.1, seed=0)
    assert all(np.linalg.norm(p.layer(h)) > 0 for h in range(1, shape.H + 1))


def test_train_runs_zero_lr_constant_trace(small_problem):
    _, b, shape = small_problem
    w = random_weights(shape, np.random.default_rng(2), scale=0.3)
    opt = ls.OptimizerConfig(algorithm="gd", lr=0.0)
    _, (trace,), _ = train_runs([w], b, opt, max_epochs=5)
    assert len(trace) == 6
    assert all(t == trace[0] for t in trace)


def test_gd_stays_at_critical_point(small_problem):
    _, b, shape = small_problem
    rng = np.random.default_rng(3)
    spec = random_certified_spec(shape, b.d_y, rng, support=(1, 2))
    w = ls.build_critical_point(spec, b, shape)
    opt = ls.OptimizerConfig(algorithm="gd", lr=1e-3)
    _, (trace,), _ = train_runs([w], b, opt, max_epochs=10)
    assert np.allclose(trace, trace[0], rtol=1e-9)


def test_gd_monotone_decrease(small_problem):
    data, b, shape = small_problem
    w = random_weights(shape, np.random.default_rng(4), scale=0.3)
    # The update scales the gradient by 1 / (m d_y), which lr undoes.
    lr = 1e-4 / np.linalg.norm(b.sigma_xx, 2) * data.m * data.d_y
    opt = ls.OptimizerConfig(algorithm="gd", lr=lr)
    _, (trace,), _ = train_runs([w], b, opt, max_epochs=10)
    assert all(trace[k + 1] < trace[k] for k in range(10))


def test_train_runs_rejects_unknown_algorithm(small_problem):
    _, b, shape = small_problem
    w = random_weights(shape, np.random.default_rng(5))
    with pytest.raises(ValueError):
        train_runs([w], b, ls.OptimizerConfig(algorithm="lbfgs"))


def test_train_runs_diverges_with_huge_lr(small_problem):
    data, b, shape = small_problem
    w = random_weights(shape, np.random.default_rng(6), scale=1.0)
    opt = ls.OptimizerConfig(algorithm="gd", lr=10.0 * data.m * data.d_y)
    _, (trace,), diverged = train_runs([w], b, opt, max_epochs=50)
    assert diverged[0] and 2 <= len(trace) < 51  # the trace ends at the divergence
    assert not trace[-1] <= DIVERGE_LIMIT


def test_escape_threshold_and_epoch(small_problem):
    _, b, _ = small_problem
    thr = escape_threshold(b, 2)
    plateau = ls.critical_value((1, 2), b)
    assert thr == pytest.approx(plateau - 0.5 * b.lambdas[2])
    with pytest.raises(ls.InvalidRank):
        escape_threshold(b, b.d_y)
    assert escape_epoch([5.0, 4.0, 3.0], 3.5) == 2
    assert escape_epoch([5.0, 4.0], 0.5) is None
    assert escape_epoch([], 1.0) is None


def test_run_experiment_deterministic():
    cfg = ls.ExperimentConfig(variant="non_tightened", n_runs=2, max_epochs=40,
                              **SMALL_CFG)
    a = ls.run_experiment(cfg)
    c = ls.run_experiment(cfg)
    assert [r.final_loss for r in a] == [r.final_loss for r in c]
    assert [r.escape_epoch for r in a] == [r.escape_epoch for r in c]


def test_run_experiment_traces_optional():
    cfg = ls.ExperimentConfig(variant="tightened", n_runs=1, max_epochs=5,
                              keep_traces=True, **SMALL_CFG)
    (run,) = ls.run_experiment(cfg)
    assert run.loss_trace is not None and len(run.loss_trace) == 6
    cfg2 = ls.ExperimentConfig(variant="tightened", n_runs=1, max_epochs=5,
                               **SMALL_CFG)
    (run2,) = ls.run_experiment(cfg2)
    assert run2.loss_trace is None
    assert run2.final_loss == run.loss_trace[-1]


def test_max_epochs_zero_never_escapes():
    cfg = ls.ExperimentConfig(variant="tightened", n_runs=1, max_epochs=0,
                              **SMALL_CFG)
    (run,) = ls.run_experiment(cfg)
    assert run.escape_epoch is None and not run.diverged


def test_summarize_runs_censoring():
    runs = [
        EscapeRun(0, "x", 10, 1.0, False),
        EscapeRun(1, "x", 30, 1.0, False),
        EscapeRun(2, "x", None, 9.0, False),
        EscapeRun(3, "x", None, np.inf, True),
    ]
    s = summarize_runs(runs)
    assert s["variant"] == "x" and s["n_runs"] == 4
    assert s["median_escape_epoch"] is None  # upper half censored
    assert s["q25_escape_epoch"] == pytest.approx(25.0)
    assert s["fraction_never_escaped"] == pytest.approx(0.5)
    assert s["n_diverged"] == 1
    s0 = summarize_runs([])
    assert s0["median_escape_epoch"] is None and s0["n_runs"] == 0


def test_csv_and_json_outputs(tmp_path):
    runs = [
        EscapeRun(0, "tightened", 12, 2.5, False),
        EscapeRun(1, "tightened", None, 8.0, False),
        EscapeRun(0, "non_tightened", 3, 1.5, False),
    ]
    rp = tmp_path / "runs.csv"
    write_runs_csv(rp, runs)
    rows = list(csv.reader(rp.open()))
    assert rows[0] == ["run", "variant", "escape_epoch", "final_loss", "diverged"]
    assert rows[2][2] == ""  # censored epoch stays empty
    hp = tmp_path / "hist.csv"
    write_histogram_csv(hp, runs, max_epochs=16)
    hrows = list(csv.reader(hp.open()))
    never = [r for r in hrows if r[1] == "never"]
    assert len(never) == 2  # one per variant
    counts = sum(int(r[3]) for r in hrows[1:])
    assert counts == 3  # every run lands in a bin or in 'never'
    obj = json.loads(summary_to_json([summarize_runs(runs[:2])]))
    assert obj["variants"][0]["n_runs"] == 2


def test_csv_outputs_pin_epochs_edges_and_counts(tmp_path):
    # An escaped run writes its escape epoch, a censored one an empty field;
    # without max_epochs the histogram's upper edge is the largest escape
    # epoch; each variant counts only its own runs.
    runs = [
        EscapeRun(0, "tightened", 12, 2.5, False),
        EscapeRun(1, "tightened", None, 8.0, False),
        EscapeRun(2, "tightened", 40, 2.0, False),
        EscapeRun(0, "non_tightened", 3, 1.5, False),
        EscapeRun(1, "non_tightened", 5, 1.0, False),
    ]
    rp = tmp_path / "runs.csv"
    write_runs_csv(rp, runs)
    assert [row[2] for row in list(csv.reader(rp.open()))[1:]] == ["12", "", "40", "3", "5"]
    hp = tmp_path / "hist.csv"
    write_histogram_csv(hp, runs)
    rows = list(csv.reader(hp.open()))[1:]
    edges = [float(r[2]) for r in rows if r[0] == "tightened" and r[1] != "never"]
    assert len(edges) == HISTOGRAM_BINS and edges[-1] == 40.0
    counts = {}
    for var, _, _, n in rows:
        counts.setdefault(var, []).append(int(n))

    def binned(*epochs, never):  # the last bin holds its upper edge
        out = [0] * HISTOGRAM_BINS + [never]
        for e in epochs:
            out[min(int(e * HISTOGRAM_BINS / 40), HISTOGRAM_BINS - 1)] += 1
        return out

    assert counts == {"tightened": binned(12, 40, never=1), "non_tightened": binned(3, 5, never=0)}


def test_small_escape_contrast():
    # scaled-down version of the escape experiment: the tightened plateau
    # holds the optimizer strictly longer than the untightened one
    common = dict(n_runs=4, max_epochs=800, **SMALL_CFG)
    tight = ls.run_experiment(ls.ExperimentConfig(variant="tightened", **common))
    loose = ls.run_experiment(ls.ExperimentConfig(variant="non_tightened", **common))
    st = summarize_runs(tight)
    sl = summarize_runs(loose)
    assert sl["fraction_never_escaped"] == 0.0
    assert st["median_escape_epoch"] is None or (
        st["median_escape_epoch"] > sl["median_escape_epoch"]
    )


def test_escape_epochs_are_pinned():
    # Rounding changes in the loss or the gradient move the traces in their
    # last digits; the escape epochs of both variants must not move.
    common = dict(n_runs=8, max_epochs=800, **SMALL_CFG)
    pinned = {"tightened": [90, 99, 102, 106, 92, 103, 97, 92],
              "non_tightened": [59, 69, 62, 77, 58, 68, 61, 62]}
    for variant, epochs in pinned.items():
        runs = ls.run_experiment(ls.ExperimentConfig(variant=variant, **common))
        assert [r.escape_epoch for r in runs] == epochs


def serial_reference(w0, bundle, opt, max_epochs):
    """One run, one epoch at a time, from the public Weights, gradient and
    loss: (final layers, trace, diverged)."""
    gscale = 1.0 / (bundle.m * bundle.d_y)
    W = list(w0.layers)
    cur = w0
    trace = [ls.loss(cur, bundle)]
    m1 = [np.zeros_like(M) for M in W]
    m2 = [np.zeros_like(M) for M in W]
    for epoch in range(1, max_epochs + 1):
        g = ls.gradient(cur, bundle)
        if opt.algorithm == "gd":
            for h in range(len(W)):
                W[h] = W[h] - opt.lr * gscale * g.layers[h]
        else:
            # Adam in unnormalized moments, as train_runs computes it; the
            # textbook form is the oracle of test_adam_step_is_the_textbook_update.
            b1t = 1.0 - ADAM_BETA1**epoch
            c = math.sqrt((1.0 - ADAM_BETA2) / (1.0 - ADAM_BETA2**epoch))
            alpha = opt.lr * (1.0 - ADAM_BETA1) / (b1t * c)
            eps = ADAM_EPS / (gscale * c)
            for h in range(len(W)):
                gh = g.layers[h]
                m1[h] = ADAM_BETA1 * m1[h] + gh
                m2[h] = ADAM_BETA2 * m2[h] + gh * gh
                W[h] = W[h] - alpha * m1[h] / (np.sqrt(m2[h]) + eps)
        cur = ls.Weights(W, w0.shape)
        trace.append(ls.loss(cur, bundle))
        if not np.isfinite(trace[-1]) or trace[-1] > DIVERGE_LIMIT:
            return W, trace, True
    return W, trace, False


@pytest.mark.parametrize("opt", [
    ls.OptimizerConfig(algorithm="adam", lr=1e-2),
    ls.OptimizerConfig(algorithm="gd", lr=0.5),
])
def test_train_runs_is_bitwise_the_serial_loop(small_problem, opt):
    _, b, shape = small_problem
    rng = np.random.default_rng(7)
    w0s = [random_weights(shape, rng, scale=0.5) for _ in range(4)]
    layers, traces, diverged = train_runs(w0s, b, opt, max_epochs=60)
    assert not diverged.any()
    for k, w0 in enumerate(w0s):
        ref_layers, ref_trace, ref_div = serial_reference(w0, b, opt, 60)
        assert not ref_div
        assert traces[k].tolist() == ref_trace  # exact, not approximate
        for h in range(shape.H):
            assert np.array_equal(layers[h][k], ref_layers[h])
    alone, (trace,), _ = train_runs([w0s[1]], b, opt, max_epochs=60)
    assert np.array_equal(trace, traces[1])
    assert all(np.array_equal(alone[h][0], layers[h][1]) for h in range(shape.H))


def test_diverging_run_is_frozen_alone(small_problem):
    _, b, shape = small_problem
    rng = np.random.default_rng(8)
    opt = ls.OptimizerConfig(algorithm="gd", lr=0.05)
    w0s = [random_weights(shape, rng, scale=0.5) for _ in range(3)]
    w0s[1] = ls.Weights([20.0 * M for M in w0s[1].layers], shape)
    with warnings.catch_warnings():
        # A frozen run that kept training would overflow within these epochs.
        warnings.simplefilter("error")
        _, traces, diverged = train_runs(w0s, b, opt, max_epochs=200)
    assert diverged.tolist() == [False, True, False]
    assert len(traces[1]) < 201 and not traces[1][-1] <= DIVERGE_LIMIT
    for k, w0 in enumerate(w0s):
        _, (alone,), div = train_runs([w0], b, opt, max_epochs=200)
        assert np.array_equal(traces[k], alone) and div[0] == diverged[k]
    _, ref_trace, ref_div = serial_reference(w0s[1], b, opt, 200)
    assert ref_div and ref_trace == traces[1].tolist()


def test_diverging_adam_runs_leave_the_stack_alone(small_problem):
    # Runs stop after 3, 3 and 1 epochs: the two that train on must keep
    # their own rows of the Adam moments when the third leaves the stack.
    _, b, shape = small_problem
    rng = np.random.default_rng(8)
    opt = ls.OptimizerConfig(algorithm="adam", lr=18.0)
    w0s = [random_weights(shape, rng, scale=0.5) for _ in range(3)]
    w0s[1] = ls.Weights([20.0 * M for M in w0s[1].layers], shape)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, traces, diverged = train_runs(w0s, b, opt, max_epochs=200)
        assert [len(t) for t in traces] == [4, 4, 2] and diverged.all()
        for k, w0 in enumerate(w0s):
            _, (alone,), _ = train_runs([w0], b, opt, max_epochs=200)
            assert np.array_equal(traces[k], alone)


def test_adam_step_is_the_textbook_update():
    # The step from unnormalized moments against Adam's own formula over
    # 2000 gradients whose rows span scales 1e-8..1e2, so that eps dominates
    # the denominator in some rows and not in others.  m1 cancels, so the
    # error is bounded by the textbook step on the moments of |g|.
    rng = np.random.default_rng(12)
    lr, gscale = 1e-3, 1.0 / (100 * 4)
    rows = 10.0 ** np.linspace(-8.0, 2.0, 16)[:, None]
    M1, M2, tmp = np.zeros((16, 440)), np.zeros((16, 440)), np.empty((16, 440))
    m1, m2, a1 = np.zeros((16, 440)), np.zeros((16, 440)), np.zeros((16, 440))
    eps_rows = set()
    for epoch in range(1, 2001):
        grad = rows * 10.0 ** rng.uniform(-1.0, 1.0) * rng.standard_normal((16, 440))
        step = grad.copy()
        _adam_step(step, M1, M2, tmp, epoch, lr, gscale)
        b1t = 1.0 - ADAM_BETA1**epoch
        b2t = 1.0 - ADAM_BETA2**epoch
        gh = gscale * grad
        m1 = ADAM_BETA1 * m1 + (1.0 - ADAM_BETA1) * gh
        m2 = ADAM_BETA2 * m2 + (1.0 - ADAM_BETA2) * gh * gh
        textbook = lr * (m1 / b1t) / (np.sqrt(m2 / b2t) + ADAM_EPS)
        a1 = ADAM_BETA1 * a1 + (1.0 - ADAM_BETA1) * np.abs(gh)
        bound = 1e-13 * (lr * (a1 / b1t) / (np.sqrt(m2 / b2t) + ADAM_EPS))
        assert np.all(np.abs(step - textbook) <= bound), epoch
        eps_rows.update(np.flatnonzero((np.sqrt(m2 / b2t) < ADAM_EPS).all(axis=1)))
    assert 0 < len(eps_rows) < 16


def test_train_runs_edge_cases(small_problem):
    _, b, shape = small_problem
    w = random_weights(shape, np.random.default_rng(9))
    layers, traces, diverged = train_runs([], b)
    assert layers == [] and traces == [] and diverged.size == 0
    _, (trace,), diverged = train_runs([w], b, max_epochs=0)
    assert trace.tolist() == [ls.loss(w, b)] and not diverged[0]
    other = random_weights(ls.NetworkShape((6, 3, 5, 4)), np.random.default_rng(9))
    with pytest.raises(ls.InvalidShape):
        train_runs([w, other], b)


@pytest.mark.parametrize("d_x, d_y", [(7, 4), (6, 3)])
def test_train_runs_refuses_a_bundle_of_other_dimensions(small_problem, d_x, d_y):
    _, b, shape = small_problem
    w = random_weights(shape, np.random.default_rng(9))
    other = ls.build_sigma_bundle(ls.generate_gaussian_data(d_x, d_y, 30, seed=0))
    with pytest.raises(ls.InvalidShape, match="weights incompatible with data dimensions"):
        train_runs([w], other)


def test_run_experiment_matches_train_runs_per_run():
    cfg = ls.ExperimentConfig(variant="tightened", n_runs=3, max_epochs=50,
                              keep_traces=True, **SMALL_CFG)
    runs = ls.run_experiment(cfg)
    b = ls.build_sigma_bundle(ls.generate_gaussian_data(6, 4, 30, 0))
    w_star = ls.build_example_family(2, "tightened", b, ls.NetworkShape(SMALL_CFG["dims"]))
    for k, run in enumerate(runs):
        w0 = ls.perturb_near(w_star, cfg.perturb_scale, cfg.data_seed + k)
        _, (trace,), _ = train_runs([w0], b, cfg.optimizer, cfg.max_epochs)
        assert run.loss_trace == trace.tolist()


def test_escape_gate():
    def summary(median):
        return {"median_escape_epoch": median}

    gate = escape_gate(summary(120.0), summary(30.0))
    assert gate == {"median_ratio": 4.0, "threshold": 3.0, "margin": 1.0}
    assert escape_gate(summary(None), summary(30.0)) is None
    assert escape_gate(summary(120.0), summary(None)) is None
    assert escape_gate(summary(12.0), summary(0.0)) is None

"""Saddle-escape experiments.

A network is initialized at a small perturbation of a rank-deficient critical
point and trained with full-batch Adam or gradient descent.  The observable
is the escape epoch: the first epoch whose loss drops below the midpoint
between the plateau value and the next-best critical value.  Non-strict
saddles (tightened points) delay escape sharply compared to strict saddles of
the same loss value; ``escape_gate`` reports the ratio of the two medians and
its margin to the paper's 3x contrast.

All runs of a variant train together, as one stack, in ``train_runs``; each
run's results are bitwise those of training it alone (a batch of one), and
run k perturbs with seed data_seed + k.

Protocol notes: the optimizer minimizes the mean squared error (the summed
square loss divided by m * d_y), matching common deep-learning framework
defaults; the per-entry gradient scale is what makes Adam's epsilon bite on
the plateau.  Loss traces are always recorded on the unnormalized square
loss so they are directly comparable to critical values.

Adam keeps its moments unnormalized.  With g the gradient of the summed
square loss and gscale = 1 / (m d_y), M1 = b1 M1 + g and M2 = b2 M2 + g * g
are Adam's moments m1 and m2 of the mean squared error's gradient divided by
(1 - b1) gscale and by (1 - b2) gscale^2.  These factors and the bias
corrections fold into two scalars per epoch, the step size and the
denominator offset (``_adam_step``); Kingma & Ba (2015, section 2) fold the
bias corrections the same way.  The update is the textbook one up to
rounding.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .critical_points import build_example_family, critical_value
from .data_model import SigmaBundle, build_sigma_bundle, generate_gaussian_data
from .errors import InvalidRank, InvalidShape
from .network import (NetworkShape, Weights, flatten, prefix_products, products_gradient,
                      products_loss, residual_moment, unflatten)

DIVERGE_LIMIT = 1e12
ESCAPE_GATE = 3.0  # tightened / non-tightened median escape epoch, paper's contrast
HISTOGRAM_BINS = 20  # escape-epoch bins of write_histogram_csv
ADAM_BETA1 = 0.9  # Adam's moment decay rates and denominator offset
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-7


@dataclass(frozen=True)
class OptimizerConfig:
    algorithm: str = "adam"  # "adam" or "gd"
    lr: float = 0.001


@dataclass(frozen=True)
class ExperimentConfig:
    dims: tuple
    m: int
    r: int
    variant: str  # "tightened" or "non_tightened"
    n_runs: int = 100
    max_epochs: int = 2000
    perturb_scale: float = 0.1
    data_seed: int = 0
    keep_traces: bool = False
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)


@dataclass(frozen=True)
class EscapeRun:
    run_index: int
    variant: str
    escape_epoch: int | None  # None = never escaped within the budget
    final_loss: float
    diverged: bool
    loss_trace: list | None = None


def perturb_near(w: Weights, scale: float, seed: int) -> Weights:
    """Add layer-wise Gaussian noise with standard deviation
    scale * ||W_h||_F / sqrt(d_{h-1} d_h) (i.e. proportional to the RMS entry
    magnitude), falling back to scale / sqrt(d_{h-1} d_h) for all-zero
    layers.  Deterministic in the seed."""
    rng = np.random.default_rng(seed)
    mats = []
    for M in w.layers:
        denom = np.sqrt(M.size)
        sigma = scale * np.linalg.norm(M) / denom
        if sigma == 0.0:
            sigma = scale / denom
        mats.append(M + sigma * rng.standard_normal(M.shape))
    return Weights(mats, w.shape)


def _adam_step(g, m1, m2, tmp, epoch: int, lr: float, gscale: float) -> None:
    """Overwrite g, the gradient of the summed square loss, with the Adam
    step of this epoch (counted from 1) and advance the unnormalized moments
    m1 = M1 and m2 = M2 of the module docstring in place; tmp is scratch.
    With c = sqrt((1 - b2) / b2t), Adam's lr (m1 / b1t) / (sqrt(m2 / b2t) +
    eps) is alpha M1 / (sqrt(M2) + eps') with alpha = lr (1 - b1) / (b1t c)
    and eps' = eps / (gscale c), two scalars: nine elementwise passes, one
    of them a division."""
    b1t = 1.0 - ADAM_BETA1**epoch
    c = math.sqrt((1.0 - ADAM_BETA2) / (1.0 - ADAM_BETA2**epoch))
    m1 *= ADAM_BETA1
    m1 += g
    m2 *= ADAM_BETA2
    m2 += np.multiply(g, g, out=tmp)
    np.sqrt(m2, out=tmp)
    tmp += ADAM_EPS / (gscale * c)
    np.multiply(m1, lr * (1.0 - ADAM_BETA1) / (b1t * c), out=g)
    g /= tmp


def train_runs(
    w0s,
    bundle: SigmaBundle,
    opt: OptimizerConfig = OptimizerConfig(),
    max_epochs: int = 2000,
):
    """Full-batch training of the networks w0s (one shape) side by side on
    the data of ``bundle``, which is read only through its moments and its
    sample count m; one epoch = one parameter update of every run still
    training.

    The runs' parameter vectors are the rows of one array, whose layer views
    are (n, d_h, d_{h-1}) stacks; each epoch is one batched pass (gradient,
    Adam or GD step, H - 1 prefix products and one ``residual_moment`` E for
    this epoch's loss and the next one's gradient: 3H - 2 matrix products)
    in which every run gets exactly the arithmetic it would get alone.  The
    weights, the gradient, their layer views, the Adam moments and one
    scratch array are made once (again only when a diverged run leaves), and
    the updates run in place on them.  The Adam moments are the unnormalized
    M1 = m1 / ((1 - b1) gscale) and M2 = m2 / ((1 - b2) gscale^2),
    gscale = 1 / (m d_y), of ``_adam_step``, which makes nine elementwise
    passes over the parameter array; ``W -= step`` makes one more.  A run
    stops at the first epoch whose (unnormalized) loss is non-finite or
    above DIVERGE_LIMIT: that epoch ends its trace, and the run takes no
    further part.

    Returns (layers, traces, diverged): the final layers as (n, d_h, d_{h-1})
    stacks (a diverged run keeps the weights of its last epoch), the loss
    traces as 1-D arrays (length max_epochs + 1 for runs that did not
    diverge, including the initial loss) and a boolean array flagging the
    diverged runs."""
    if opt.algorithm not in ("adam", "gd"):
        raise ValueError(f"unknown optimizer {opt.algorithm!r}")
    n = len(w0s)
    if not n:
        return [], [], np.zeros(0, dtype=bool)
    shape = w0s[0].shape
    if any(w.shape != shape for w in w0s):
        raise InvalidShape("runs of different shapes")
    if shape.d_x != bundle.d_x or shape.d_y != bundle.d_y:
        raise InvalidShape("weights incompatible with data dimensions")
    gscale = 1.0 / (bundle.m * bundle.d_y)  # the gradient of the mean squared error
    W = np.stack([flatten(w.layers) for w in w0s])  # one row per live run
    g, m1, m2, tmp = np.empty_like(W), np.zeros_like(W), np.zeros_like(W), np.empty_like(W)
    layers, blocks = unflatten(W, shape.dims), unflatten(g, shape.dims)
    live = np.arange(n)  # the run index of each row of W
    final = np.empty_like(W)
    traces = np.empty((n, max_epochs + 1))
    lengths = np.full(n, max_epochs + 1)
    diverged = np.zeros(n, dtype=bool)
    pre = prefix_products(layers)
    E = residual_moment(pre[-1], bundle)
    traces[:, 0] = products_loss(pre[-1], E, bundle)
    for epoch in range(1, max_epochs + 1):
        products_gradient(layers, pre, E, blocks)  # g, then scratch of the step
        if opt.algorithm == "gd":
            g *= opt.lr * gscale
        else:
            _adam_step(g, m1, m2, tmp, epoch, opt.lr, gscale)
        W -= g
        pre = prefix_products(layers)
        E = residual_moment(pre[-1], bundle)
        val = products_loss(pre[-1], E, bundle)
        traces[live, epoch] = val
        ok = val <= DIVERGE_LIMIT  # false for nan and inf as well
        if not ok.all():
            stop = live[~ok]
            lengths[stop] = epoch + 1
            diverged[stop] = True
            final[stop] = W[~ok]
            live, W, g, m1, m2, tmp, E = (a[ok] for a in (live, W, g, m1, m2, tmp, E))
            if not live.size:
                break
            layers, blocks = unflatten(W, shape.dims), unflatten(g, shape.dims)
            pre = prefix_products(layers)
    final[live] = W
    return unflatten(final, shape.dims), [traces[k, :lengths[k]] for k in range(n)], diverged


def escape_threshold(bundle: SigmaBundle, r: int) -> float:
    """Halfway between the rank-r plateau and the critical value with the
    eigenvalue r + 1 added."""
    if not (0 <= r < bundle.d_y):
        raise InvalidRank(f"need 0 <= r < d_y = {bundle.d_y}, got {r}")
    plateau = critical_value(tuple(range(1, r + 1)), bundle)
    return plateau - 0.5 * float(bundle.lambdas[r])


def escape_epoch(trace, threshold: float) -> int | None:
    """First epoch (index into the trace) with loss below the threshold."""
    below = np.flatnonzero(np.asarray(trace, dtype=float) < threshold)
    return int(below[0]) if below.size else None


def run_experiment(cfg: ExperimentConfig) -> list:
    """All runs for one variant.  Deterministic: the data comes from
    data_seed and run k perturbs with seed data_seed + k, so results do not
    depend on scheduling or ordering."""
    shape = NetworkShape(cfg.dims)
    bundle = build_sigma_bundle(generate_gaussian_data(shape.d_x, shape.d_y, cfg.m, cfg.data_seed))
    w_star = build_example_family(cfg.r, cfg.variant, bundle, shape, interior="identity")
    threshold = escape_threshold(bundle, cfg.r)

    w0s = [
        perturb_near(w_star, cfg.perturb_scale, cfg.data_seed + k)
        for k in range(cfg.n_runs)
    ]
    _, traces, diverged = train_runs(w0s, bundle, cfg.optimizer, cfg.max_epochs)
    return [
        EscapeRun(
            run_index=k,
            variant=cfg.variant,
            escape_epoch=None if diverged[k] else escape_epoch(trace, threshold),
            final_loss=float(trace[-1]),
            diverged=bool(diverged[k]),
            loss_trace=trace.tolist() if cfg.keep_traces else None,
        )
        for k, trace in enumerate(traces)
    ]


def summarize_runs(runs) -> dict:
    """Median and quartiles of escape epochs.  Runs that never escaped (or
    diverged) are censored at +inf; a censored quantile is reported as None."""
    eps = np.array(
        [np.inf if r.escape_epoch is None else float(r.escape_epoch) for r in runs]
    )

    def q(p):
        if not eps.size:
            return None
        with np.errstate(invalid="ignore"):  # inf - inf in the interpolation
            v = float(np.quantile(eps, p))
        return None if not np.isfinite(v) else v

    n = len(runs)
    return {
        "variant": runs[0].variant if runs else None,
        "n_runs": n,
        "median_escape_epoch": q(0.5),
        "q25_escape_epoch": q(0.25),
        "q75_escape_epoch": q(0.75),
        "fraction_never_escaped": float(np.mean(~np.isfinite(eps))) if n else 0.0,
        "n_diverged": sum(1 for r in runs if r.diverged),
    }


def escape_gate(tight: dict, loose: dict) -> dict | None:
    """The experiment's acceptance statistic from the ``summarize_runs`` of
    the tightened and the non-tightened variant: the ratio of their median
    escape epochs and its margin to ESCAPE_GATE.  None when either median is
    censored or the non-tightened median is 0."""
    tm, lm = tight["median_escape_epoch"], loose["median_escape_epoch"]
    if tm is None or not lm:
        return None
    ratio = tm / lm
    return {"median_ratio": ratio, "threshold": ESCAPE_GATE, "margin": ratio - ESCAPE_GATE}


def write_runs_csv(path, runs) -> None:
    with open(path, "w", newline="") as f:
        wr = csv.writer(f)
        wr.writerow(["run", "variant", "escape_epoch", "final_loss", "diverged"])
        for r in runs:
            wr.writerow(
                [r.run_index, r.variant,
                 "" if r.escape_epoch is None else r.escape_epoch,
                 repr(r.final_loss), int(r.diverged)]
            )


def write_histogram_csv(path, runs, max_epochs: int | None = None) -> None:
    """Escape-epoch histogram, HISTOGRAM_BINS bins and a 'never' bin per variant."""
    variants = sorted({r.variant for r in runs})
    hi = max_epochs or max(
        (r.escape_epoch for r in runs if r.escape_epoch is not None), default=1
    )
    edges = np.linspace(0, hi, HISTOGRAM_BINS + 1)
    with open(path, "w", newline="") as f:
        wr = csv.writer(f)
        wr.writerow(["variant", "bin_lo", "bin_hi", "count"])
        for var in variants:
            eps = [r.escape_epoch for r in runs if r.variant == var]
            finite = np.array([e for e in eps if e is not None], dtype=float)
            counts, _ = np.histogram(finite, bins=edges)
            for b in range(HISTOGRAM_BINS):
                wr.writerow([var, repr(float(edges[b])), repr(float(edges[b + 1])),
                             int(counts[b])])
            wr.writerow([var, "never", "never", sum(1 for e in eps if e is None)])


def summary_to_json(summaries, **extra) -> str:
    return json.dumps({"variants": summaries, **extra}, indent=2)

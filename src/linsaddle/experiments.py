"""Saddle-escape experiments.

A network is initialized at a small perturbation of a rank-deficient critical
point and trained with full-batch Adam or gradient descent.  The observable
is the escape epoch: the first epoch whose loss drops below the midpoint
between the plateau value and the next-best critical value.  Non-strict
saddles (tightened points) delay escape sharply compared to strict saddles of
the same loss value.

Protocol notes: the optimizer minimizes the mean squared error (the summed
square loss divided by m * d_y), matching common deep-learning framework
defaults; the per-entry gradient scale is what makes Adam's epsilon bite on
the plateau.  Loss traces are always recorded on the unnormalized square
loss so they are directly comparable to critical values.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np

from .critical_points import build_example_family, critical_value
from .data_model import DataMatrices, SigmaBundle, build_sigma_bundle, generate_gaussian_data
from .errors import Diverged, InvalidRank
from .network import NetworkShape, Weights, gradient, loss

DIVERGE_LIMIT = 1e12


@dataclass(frozen=True)
class OptimizerConfig:
    algorithm: str = "adam"  # "adam" or "gd"
    lr: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-7
    mse_scaling: bool = True  # feed gradients of loss / (m * d_y) to the update


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
    escape_margin_index: int | None = None  # defaults to r + 1
    family_interior: str = "identity"  # interior Z fill for the strict variant
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


def run_optimizer(
    w0: Weights,
    bundle: SigmaBundle,
    data: DataMatrices,
    opt: OptimizerConfig = OptimizerConfig(),
    max_epochs: int = 2000,
) -> tuple[Weights, list]:
    """Full-batch training; one epoch = one parameter update.  Returns the
    final weights and the unnormalized loss trace (length max_epochs + 1,
    including the initial loss).  Raises Diverged (with the partial trace
    attached) when the loss exceeds a hard ceiling or turns non-finite."""
    if opt.algorithm not in ("adam", "gd"):
        raise ValueError(f"unknown optimizer {opt.algorithm!r}")
    gscale = 1.0 / (data.m * data.d_y) if opt.mse_scaling else 1.0
    W = list(w0.layers)
    cur = w0  # the weights W, whose loss and product table are reused
    trace = [loss(cur, bundle, data)]
    m1 = [np.zeros_like(M) for M in W]
    m2 = [np.zeros_like(M) for M in W]
    for epoch in range(1, max_epochs + 1):
        g = gradient(cur, bundle)
        if opt.algorithm == "gd":
            for h in range(len(W)):
                W[h] = W[h] - opt.lr * gscale * g.layers[h]
        else:
            b1t = 1.0 - opt.beta1**epoch
            b2t = 1.0 - opt.beta2**epoch
            for h in range(len(W)):
                gh = gscale * g.layers[h]
                m1[h] = opt.beta1 * m1[h] + (1.0 - opt.beta1) * gh
                m2[h] = opt.beta2 * m2[h] + (1.0 - opt.beta2) * gh * gh
                W[h] = W[h] - opt.lr * (m1[h] / b1t) / (
                    np.sqrt(m2[h] / b2t) + opt.eps
                )
        cur = Weights(W, w0.shape)
        val = loss(cur, bundle, data)
        trace.append(val)
        if not np.isfinite(val) or val > DIVERGE_LIMIT:
            raise Diverged(f"loss {val:.3g} at epoch {epoch}", trace=trace)
    return cur, trace


def escape_threshold(bundle: SigmaBundle, r: int, margin_index: int | None = None) -> float:
    """Halfway between the rank-r plateau and the critical value with the
    eigenvalue at margin_index (default r + 1) added."""
    k = r + 1 if margin_index is None else margin_index
    if not (1 <= k <= bundle.d_y):
        raise InvalidRank(f"escape margin index {k} outside [1, {bundle.d_y}]")
    plateau = critical_value(tuple(range(1, r + 1)), bundle)
    return plateau - 0.5 * float(bundle.lambdas[k - 1])


def escape_epoch(trace, threshold: float) -> int | None:
    """First epoch (index into the trace) with loss below the threshold."""
    for epoch, val in enumerate(trace):
        if val < threshold:
            return epoch
    return None


def run_experiment(cfg: ExperimentConfig) -> list:
    """All runs for one variant.  Deterministic: the data comes from
    data_seed and run k perturbs with seed data_seed + k, so results do not
    depend on scheduling or ordering."""
    shape = NetworkShape(cfg.dims)
    data = generate_gaussian_data(shape.d_x, shape.d_y, cfg.m, cfg.data_seed)
    bundle = build_sigma_bundle(data)
    w_star = build_example_family(
        cfg.r, cfg.variant, bundle, shape, interior=cfg.family_interior
    )
    threshold = escape_threshold(bundle, cfg.r, cfg.escape_margin_index)

    runs = []
    for k in range(cfg.n_runs):
        w0 = perturb_near(w_star, cfg.perturb_scale, cfg.data_seed + k)
        try:
            _, trace = run_optimizer(w0, bundle, data, cfg.optimizer, cfg.max_epochs)
            diverged = False
        except Diverged as err:
            trace = err.trace
            diverged = True
        ep = None if diverged else escape_epoch(trace, threshold)
        runs.append(
            EscapeRun(
                run_index=k,
                variant=cfg.variant,
                escape_epoch=ep,
                final_loss=float(trace[-1]),
                diverged=diverged,
                loss_trace=list(trace) if cfg.keep_traces else None,
            )
        )
    return runs


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


def write_histogram_csv(path, runs, n_bins: int = 20, max_epochs: int | None = None) -> None:
    """Escape-epoch histogram with a trailing 'never' bin per variant."""
    variants = sorted({r.variant for r in runs})
    hi = max_epochs or max(
        (r.escape_epoch for r in runs if r.escape_epoch is not None), default=1
    )
    edges = np.linspace(0, hi, n_bins + 1)
    with open(path, "w", newline="") as f:
        wr = csv.writer(f)
        wr.writerow(["variant", "bin_lo", "bin_hi", "count"])
        for var in variants:
            eps = [r.escape_epoch for r in runs if r.variant == var]
            finite = np.array([e for e in eps if e is not None], dtype=float)
            counts, _ = np.histogram(finite, bins=edges)
            for b in range(n_bins):
                wr.writerow([var, repr(float(edges[b])), repr(float(edges[b + 1])),
                             int(counts[b])])
            wr.writerow([var, "never", "never", sum(1 for e in eps if e is None)])


def summary_to_json(summaries) -> str:
    return json.dumps({"variants": summaries}, indent=2)

"""The four workloads: their inputs (built from the workload seed), the timed
operations, and the checks applied to every output.

Each workload is a fixed list of operations, one pass.  The runner repeats
passes, so a later pass re-runs exactly the same inputs; that is what the
determinism checks compare.  Every call into the library goes through the
``linsaddle`` package namespace at call time, so a tracer installed in that
namespace sees it.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, replace
from time import perf_counter
from typing import Callable

import numpy as np

import linsaddle as ls
from linsaddle.critical_points import CriticalPointSpec, z_block_shape

NON_STRICT = "non_strict_saddle"
STRICT = "strict_saddle"

# Relative tolerance of the probe's eigenvalue and of the sum-of-squares
# identity.  The probe runs ARPACK at tol=1e-6; the SOS identity is exact up
# to rounding, so 1e-8 of the magnitude of its terms leaves eight orders of
# headroom over double precision.
PROBE_RTOL = 1e-6
SOS_RTOL = 1e-8


class Stages:
    """Wall time per named stage of one operation, plus work counters."""

    def __init__(self):
        self.seconds: dict[str, float] = {}
        self.counts: dict[str, int] = {}

    @contextmanager
    def __call__(self, name: str):
        t0 = perf_counter()
        try:
            yield
        finally:
            self.seconds[name] = self.seconds.get(name, 0.0) + perf_counter() - t0

    def count(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + n


@dataclass
class Op:
    """One timed operation.  ``run`` is timed; ``check`` is not, and returns
    (check name, passed, detail) for every check it evaluated."""

    key: str
    run: Callable[[Stages], object]
    check: Callable[[object], list]
    fingerprint: Callable[[object], object]


@dataclass
class Workload:
    name: str
    why: str
    setup: Callable[[int], object]
    ops: Callable[[object], list]
    headline: Callable[[dict, dict, dict], list]
    setup_repeats: int = 3
    reference: str = "small"  # host-speed kernel, see harness.REFERENCE_KERNELS
    # (module, function) calls inside an operation where a host-speed reading
    # may be taken, for operations longer than the host's speed phases.
    checkpoints: tuple = ()
    pass_checks: Callable[[dict], list] | None = None  # on the first pass's results


def random_direction(shape, rng) -> "ls.Direction":
    return ls.Direction(
        [rng.standard_normal(shape.layer_shape(h)) for h in range(1, shape.H + 1)], shape
    )


def sos_checks(decs, c2s) -> list:
    """The SOS decomposition's c2 must equal c2_value along each direction.

    The tolerance is relative to the magnitude of the decomposition's terms,
    which scale like c2 itself when the data are rescaled."""
    out = []
    for dec, c2 in zip(decs, c2s):
        mag = abs(dec.a1) + float(np.sum(dec.A2 ** 2) + np.sum(dec.A3 ** 2) + np.sum(dec.A4 ** 2))
        err = abs(dec.c2 - c2)
        out.append(("sos_c2_matches", err <= SOS_RTOL * (abs(c2) + mag),
                    f"|{dec.c2:.6g} - {c2:.6g}| = {err:.3g}"))
    return out


# ---------------------------------------------------------------------------
# escape: the paper's saddle-escape experiment.
# ---------------------------------------------------------------------------

ESCAPE_DIMS = (10, 10, 10, 10, 10, 4)
ESCAPE_RUNS = 16
ESCAPE_EPOCHS = 2000
ESCAPE_GATE = 3.0
VARIANTS = ("tightened", "non_tightened")


def escape_setup(seed: int):
    return {
        v: ls.ExperimentConfig(dims=ESCAPE_DIMS, m=100, r=2, variant=v, n_runs=ESCAPE_RUNS,
                               max_epochs=ESCAPE_EPOCHS, data_seed=seed)
        for v in VARIANTS
    }


def escape_ops(configs) -> list:
    def make(cfg):
        def run(st):
            with st("runs"):
                runs = ls.run_experiment(cfg)
            st.count("epochs", cfg.max_epochs * sum(1 for r in runs if not r.diverged))
            return runs

        return Op(
            key=cfg.variant, run=run,
            check=lambda runs: [("no_divergence", not any(r.diverged for r in runs),
                                 f"{sum(r.diverged for r in runs)} diverged")],
            fingerprint=lambda runs: tuple((r.escape_epoch, r.diverged) for r in runs),
        )

    return [make(configs[v]) for v in VARIANTS]


def escape_gate(tight: dict, loose: dict) -> list:
    """Criterion 8 of the acceptance suite on the runs done, from the two
    ``summarize_runs`` summaries."""
    lm, tm = loose["median_escape_epoch"], tight["median_escape_epoch"]
    if lm is None:
        ratio_ok, detail = False, "non-tightened median is censored"
    elif tm is None:
        ratio_ok, detail = True, "tightened median is censored (never escaped)"
    else:
        ratio = tm / lm
        ratio_ok = ratio >= ESCAPE_GATE
        detail = f"median ratio {ratio:.3f} ({tm:g} / {lm:g}), margin to {ESCAPE_GATE:g}x: {ratio - ESCAPE_GATE:+.3f}"
    return [
        ("c8_non_tightened_escapes", loose["fraction_never_escaped"] <= 0.10,
         f"never escaped: {loose['fraction_never_escaped']:.3f}"),
        ("c8_non_tightened_median", lm is not None, f"median {lm}"),
        ("c8_ratio_ge_3x", ratio_ok, detail),
    ]


def escape_pass_checks(results: dict) -> list:
    return escape_gate(ls.summarize_runs(results["tightened"]),
                       ls.summarize_runs(results["non_tightened"]))


def escape_headline(stage_s, counts, e2e) -> list:
    return [("escape.epochs_per_s", counts["epochs"] / e2e["pass_s"], "1/s")]


# ---------------------------------------------------------------------------
# certify: classify and certify a corpus of rescaled critical points.
# ---------------------------------------------------------------------------

CERTIFY_POINTS = 800
CERTIFY_SCALE_DECADES = 3.0  # X and Y are each rescaled by 10**U(-3, 3)
CERTIFY_DIRECTIONS = 3


def _random_problem(rng, H):
    d_x = int(rng.integers(2, 13))
    d_y = int(rng.integers(1, d_x + 1))
    hidden = [int(rng.integers(1, 13)) for _ in range(H - 1)]
    return tuple([d_x] + hidden + [d_y]), d_x + int(rng.integers(3, 20))


def _random_spec(shape, d_y, rng) -> CriticalPointSpec:
    """A random certified (S, Z, D) spec with well-conditioned D blocks."""
    r = int(rng.integers(0, shape.r_max + 1))
    support = tuple(sorted(rng.choice(np.arange(1, d_y + 1), size=r, replace=False).tolist()))
    zero = (set(rng.choice(np.arange(shape.H), size=min(2, shape.H), replace=False).tolist())
            if r < shape.r_max else set())
    z_blocks = []
    for h in range(1, shape.H + 1):
        Z = np.zeros(z_block_shape(shape, r, h))
        if (h - 1) not in zero and Z.size and rng.random() < 0.7:
            Z[:] = rng.standard_normal(Z.shape)
        z_blocks.append(Z)
    d_blocks = tuple(np.eye(shape.dims[h]) + 0.2 * rng.standard_normal((shape.dims[h],) * 2)
                     for h in range(1, shape.H))
    return CriticalPointSpec(support=support, z_blocks=tuple(z_blocks), d_blocks=d_blocks)


@dataclass(frozen=True)
class CertifyPoint:
    X: np.ndarray
    Y: np.ndarray
    w: object  # Weights at the rescaled data
    shape: object
    support: tuple
    unit_verdict: str  # verdict at unit scale, or "raised:<error>"
    directions: tuple  # for the SOS certificate, covariant with the rescaling


def certify_setup(seed: int) -> list:
    """Points drawn like the acceptance corpus, then X -> aX and Y -> bY with
    independent log-uniform a, b.  W_1 -> (b/a) W_1 keeps each point critical
    with the same support and verdict."""
    rng = np.random.default_rng(seed)
    points = []
    while len(points) < CERTIFY_POINTS:
        # Depths in turn rather than drawn, so every seed has the same mix.
        dims, m = _random_problem(rng, (2, 3, 5)[len(points) % 3])
        data = ls.generate_gaussian_data(dims[0], dims[-1], m, seed=int(rng.integers(2**31)))
        if not ls.check_assumption_h(data).holds:
            continue
        bundle = ls.build_sigma_bundle(data)
        shape = ls.NetworkShape(dims)
        spec = _random_spec(shape, bundle.d_y, rng)
        w = ls.build_critical_point(spec, bundle, shape)
        try:
            unit = ls.classify(w, bundle, data).verdict
        except ls.LinSaddleError as err:
            unit = f"raised:{type(err).__name__}"
        a, b = 10.0 ** rng.uniform(-CERTIFY_SCALE_DECADES, CERTIFY_SCALE_DECADES, size=2)

        def covariant(layers):
            return [layers[0] * (b / a)] + list(layers[1:])

        dirs = tuple(ls.Direction(covariant(random_direction(shape, rng).layers), shape)
                     for _ in range(CERTIFY_DIRECTIONS))
        points.append(CertifyPoint(
            X=data.X * a, Y=data.Y * b, w=ls.Weights(covariant(w.layers), shape), shape=shape,
            support=spec.support, unit_verdict=unit, directions=dirs,
        ))
    return points


@dataclass
class CertifyResult:
    data: object
    cls: object
    w_canonical: object = None
    decs: list = None


def certify_checks(point: CertifyPoint, res: CertifyResult) -> list:
    c = res.cls
    out = [
        ("support", c.support == point.support, f"{c.support} vs {point.support}"),
        ("verdict_scale_invariant", c.verdict == point.unit_verdict,
         f"{c.verdict} vs unit-scale {point.unit_verdict}"),
    ]
    if c.verdict == STRICT:
        out.append(("witness_c2_negative", c.witness_c2 is not None and c.witness_c2 < 0,
                    f"witness c2 {c.witness_c2}"))
    if c.verdict == NON_STRICT:
        c2s = [ls.c2_value(res.w_canonical, v, res.data) for v in point.directions]
        out += sos_checks(res.decs, c2s)
    return out


def certify_ops(points) -> list:
    def make(k, p):
        def run(st):
            with st("bundle"):
                data = ls.DataMatrices(p.X, p.Y)
                bundle = ls.build_sigma_bundle(data)
            with st("classify"):
                res = CertifyResult(data=data, cls=ls.classify(p.w, bundle, data))
            if res.cls.verdict == NON_STRICT:
                with st("certificate"):
                    spec = ls.canonical_form(p.w, bundle)
                    res.w_canonical = ls.build_critical_point(
                        replace(spec, d_blocks=None), bundle, p.shape, require_certified=False)
                    res.decs = [ls.ft_st_decomposition(res.w_canonical, v, bundle, data)
                                for v in p.directions]
            return res

        return Op(key=f"point{k}", run=run, check=lambda res: certify_checks(p, res),
                  fingerprint=lambda res: (res.cls.verdict, res.cls.support))

    return [make(k, p) for k, p in enumerate(points)]


def certify_headline(stage_s, counts, e2e) -> list:
    return [
        ("certify.points_per_s", CERTIFY_POINTS / e2e["pass_s"], "1/s"),
        ("certify.point_p50_ms", e2e["op_p50_ms"], "ms"),
        ("certify.point_p95_ms", e2e["op_p95_ms"], "ms"),
    ]


# ---------------------------------------------------------------------------
# deep_probe: Hessian probes on deep networks.
# ---------------------------------------------------------------------------

DEEP_DEPTHS = (8, 16, 24)
DEEP_DRAWS = 4  # data sets per depth, so that 24 operations give steady percentiles
DEEP_WIDTH = 20
DEEP_DY = 6
DEEP_M = 200
DEEP_DIRECTIONS = 8
EXPECTED = {"tightened": NON_STRICT, "non_tightened": STRICT}


def deep_setup(seed: int) -> list:
    rng = np.random.default_rng(seed)
    cases = []
    for H in DEEP_DEPTHS:
        shape = ls.NetworkShape((DEEP_WIDTH,) * H + (DEEP_DY,))
        for draw in range(DEEP_DRAWS):
            data = ls.generate_gaussian_data(DEEP_WIDTH, DEEP_DY, DEEP_M,
                                             seed=int(rng.integers(2**31)))
            bundle = ls.build_sigma_bundle(data)
            points = []
            for variant in VARIANTS:
                w = ls.build_example_family(2, variant, bundle, shape, interior="identity")
                dirs = tuple(random_direction(shape, rng) for _ in range(DEEP_DIRECTIONS))
                points.append((variant, w, dirs))
            cases.append((f"H{H}.{draw}", data, bundle, points))
    return cases


def rayleigh_checks(variant: str, verdict: str, lam: float, rayleigh: list) -> list:
    """The probe's smallest eigenvalue may not exceed any sampled Rayleigh
    quotient 2 c2(v) / |v|^2; at a non-strict point it may not be positive
    beyond the probe's tolerance relative to the largest sampled quotient."""
    scale = max(abs(q) for q in rayleigh)
    out = [
        ("verdict", verdict == EXPECTED[variant], f"{variant}: {verdict}"),
        ("rayleigh_bound", lam <= min(rayleigh) + PROBE_RTOL * scale,
         f"lambda_min {lam:.6g}, min Rayleigh {min(rayleigh):.6g}"),
    ]
    if verdict == NON_STRICT:
        out.append(("nonstrict_lambda_sign", lam <= PROBE_RTOL * max(rayleigh),
                    f"lambda_min {lam:.6g}, max Rayleigh {max(rayleigh):.6g}"))
    return out


def deep_ops(cases) -> list:
    def make(case, data, bundle, variant, w, dirs):
        def run(st):
            with st("classify"):
                res = ls.classify(w, bundle, data)
            with st("probe"):
                lam = ls.hessian_min_eig(w, data, mode="probe")
            vs = dirs + ((res.witness.direction,) if res.witness is not None else ())
            with st("c2"):
                c2s = [ls.c2_value(w, v, data) for v in vs]
            st.count("c2", len(vs))
            return res.verdict, lam, [2.0 * c / v.sq_norm() for c, v in zip(c2s, vs)]

        return Op(key=f"{case}.{variant}", run=run,
                  check=lambda out: rayleigh_checks(variant, *out),
                  fingerprint=lambda out: out[0])

    return [make(case, data, bundle, *point) for case, data, bundle, points in cases
            for point in points]


def deep_headline(stage_s, counts, e2e) -> list:
    return [
        ("deep_probe.classify_s", stage_s["classify"], "s"),
        ("deep_probe.probe_s", stage_s["probe"], "s"),
        ("deep_probe.c2_per_s", counts["c2"] / stage_s["c2"], "1/s"),
    ]


# ---------------------------------------------------------------------------
# large_m: the data bundle and the certificate as the sample count grows.
# ---------------------------------------------------------------------------

LARGE_DIMS = (10, 8, 8, 8, 4)
LARGE_MS = (200, 1000, 3000)
LARGE_R = 2
LARGE_DIRECTIONS = 2


def large_setup(seed: int) -> list:
    rng = np.random.default_rng(seed)
    shape = ls.NetworkShape(LARGE_DIMS)
    return [
        (m, shape,
         ls.generate_gaussian_data(LARGE_DIMS[0], LARGE_DIMS[-1], m, seed=int(rng.integers(2**31))),
         tuple(random_direction(shape, rng) for _ in range(LARGE_DIRECTIONS)))
        for m in LARGE_MS
    ]


def large_checks(w, cls, decs, data, dirs) -> list:
    out = [
        ("verdict", cls.verdict == NON_STRICT, cls.verdict),
        ("support", cls.support == tuple(range(1, LARGE_R + 1)), f"{cls.support}"),
    ]
    return out + sos_checks(decs, [ls.c2_value(w, v, data) for v in dirs])


def large_ops(cases) -> list:
    def make(m, shape, data, dirs):
        def run(st):
            with st("bundle"):
                bundle = ls.build_sigma_bundle(data)
            with st("certificate"):
                w = ls.build_example_family(LARGE_R, "tightened", bundle, shape)
                cls = ls.classify(w, bundle, data)
                decs = [ls.ft_st_decomposition(w, v, bundle, data) for v in dirs]
            return w, cls, decs

        return Op(key=f"m{m}", run=run,
                  check=lambda out: large_checks(out[0], out[1], out[2], data, dirs),
                  fingerprint=lambda out: (out[1].verdict, out[1].support))

    return [make(*case) for case in cases]


def large_headline(stage_s, counts, e2e) -> list:
    return [
        ("large_m.bundle_s", stage_s["bundle"], "s"),
        ("large_m.certificate_s", stage_s["certificate"], "s"),
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("escape", "the paper's saddle-escape experiment: thousands of tiny gradient, loss "
                 "and Weights calls",
                 escape_setup, escape_ops, escape_headline, setup_repeats=5,
                 pass_checks=escape_pass_checks,
                 checkpoints=(("network", "loss"),)),
        Workload("certify", "rescaled acceptance-style corpus: many small-matrix classify and "
                 "certificate calls on small bundles",
                 certify_setup, certify_ops, certify_headline),
        Workload("deep_probe", "deep nets: curvature matvecs and O(H^2) pivot analysis",
                 deep_setup, deep_ops, deep_headline),
        Workload("large_m", "growing sample count: the m x m objects in the bundle and the "
                 "certificate",
                 large_setup, large_ops, large_headline, reference="dense"),
    )
}

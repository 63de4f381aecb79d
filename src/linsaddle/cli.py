"""Command-line interface.

All structured output (JSON) goes to stdout; progress and warnings go to
stderr.  Exit codes: 0 success, 2 expected domain failure (bad input,
assumption violation, point not critical), 3 internal inconsistency or
unexpected error.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys

import numpy as np

from . import __version__
from .classifier import classification_to_json, classify
from .critical_points import (
    CriticalPointSpec,
    build_critical_point,
    build_example_family,
    canonical_form,
    enumerate_critical_values,
    spec_from_json,
    spec_to_json,
    z_block_shape,
)
from .curvature import CurvatureCache, hessian_min_eig
from .data_model import (
    DataMatrices,
    build_sigma_bundle,
    check_assumption_h,
    generate_gaussian_data,
    read_matrix_csv,
    write_matrix_csv,
)
from .errors import InternalInconsistency, LinSaddleError
from .experiments import (
    ExperimentConfig,
    OptimizerConfig,
    escape_gate,
    run_experiment,
    summarize_runs,
    summary_to_json,
    write_histogram_csv,
    write_runs_csv,
)
from .network import Direction, NetworkShape, weights_from_json, weights_to_json
from .ranktol import RankTolerance

log = logging.getLogger("linsaddle")


def _dims(text: str) -> tuple:
    return tuple(int(t) for t in text.split(","))


def _support(text: str) -> tuple:
    text = text.strip()
    if not text:
        return ()
    return tuple(sorted(int(t) for t in text.split(",")))


def _load_data(args) -> DataMatrices:
    return DataMatrices(X=read_matrix_csv(args.x), Y=read_matrix_csv(args.y))


def _rank_tol(args) -> RankTolerance:
    return RankTolerance(relative=args.tol_rank)


def cmd_gen_data(args) -> int:
    data = generate_gaussian_data(args.dx, args.dy, args.m, args.seed)
    report = check_assumption_h(data)
    write_matrix_csv(f"{args.out_prefix}_X.csv", data.X)
    write_matrix_csv(f"{args.out_prefix}_Y.csv", data.Y)
    payload = {
        "d_x": data.d_x, "d_y": data.d_y, "m": data.m, "seed": args.seed,
        "assumption_holds": report.holds,
        "checks": [
            {"name": n, "passed": ok, "measured": meas, "threshold": thr}
            for (n, ok, meas, thr) in report.checks
        ],
    }
    if report.holds:
        payload["lambdas"] = build_sigma_bundle(data).lambdas.tolist()
    text = json.dumps(payload)
    with open(f"{args.out_prefix}_report.json", "w") as f:
        f.write(text)
    print(text)
    return 0 if report.holds else 2


def cmd_construct(args) -> int:
    data = _load_data(args)
    bundle = build_sigma_bundle(data)
    shape = NetworkShape(_dims(args.dims))
    if args.spec:
        with open(args.spec) as f:
            spec = spec_from_json(f.read(), shape)
        w = build_critical_point(spec, bundle, shape)
    elif args.variant:
        w = build_example_family(args.r, args.variant, bundle, shape)
    else:
        S = _support(args.support)
        z_blocks = tuple(
            np.zeros(z_block_shape(shape, len(S), h))
            for h in range(1, shape.H + 1)
        )
        spec = CriticalPointSpec(support=S, z_blocks=z_blocks)
        w = build_critical_point(spec, bundle, shape)
    text = weights_to_json(w)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
        log.info("wrote weights to %s", args.out)
    print(text)
    return 0


def cmd_classify(args) -> int:
    data = _load_data(args)
    bundle = build_sigma_bundle(data)
    with open(args.weights) as f:
        w = weights_from_json(f.read())
    result = classify(
        w, bundle, data, rank_tol=_rank_tol(args), tau_crit=args.tol_crit
    )
    print(classification_to_json(result))
    return 0  # a not_critical verdict is informative output, not an error


def cmd_canonicalize(args) -> int:
    data = _load_data(args)
    bundle = build_sigma_bundle(data)
    with open(args.weights) as f:
        w = weights_from_json(f.read())
    spec = canonical_form(w, bundle, rank_tol=_rank_tol(args), tau_crit=args.tol_crit)
    print(spec_to_json(spec))
    return 0


def cmd_probe(args) -> int:
    data = _load_data(args)
    with open(args.weights) as f:
        w = weights_from_json(f.read())
    lam, vec = hessian_min_eig(
        w, data, mode=args.mode, tol=args.tol_eig, return_vector=True
    )
    cache = CurvatureCache(w, data)
    rng = np.random.default_rng(args.sample_seed)
    samples = []
    for _ in range(args.samples):
        v = Direction(
            [rng.standard_normal(w.shape.layer_shape(h))
             for h in range(1, w.shape.H + 1)],
            w.shape,
        )
        samples.append(cache.c2(v))
    # The eigenvector is a witness only when its c2 passes classify's test:
    # at a non-strict saddle lambda_min is 0 up to rounding, of either sign.
    c2, thr = cache.c2_threshold(vec)
    print(json.dumps({
        "lambda_min": lam,
        "mode": args.mode,
        "c2_samples": samples,
        "witness": {"layers": [M.tolist() for M in vec.layers], "c2": c2} if c2 < thr else None,
    }))
    return 0


def cmd_enumerate(args) -> int:
    data = _load_data(args)
    bundle = build_sigma_bundle(data)
    shape = NetworkShape(_dims(args.dims))
    entries = enumerate_critical_values(bundle, shape)
    print(json.dumps([
        {"support": list(S), "value": v, "kind_hint": hint}
        for (S, v, hint) in entries
    ]))
    return 0


def cmd_experiment(args) -> int:
    opt = OptimizerConfig(algorithm=args.optimizer, lr=args.lr)
    variants = (
        ["tightened", "non_tightened"] if args.variant == "both" else [args.variant]
    )
    all_runs, summaries = [], []
    for var in variants:
        cfg = ExperimentConfig(
            dims=_dims(args.dims), m=args.m, r=args.r, variant=var,
            n_runs=args.runs, max_epochs=args.max_epochs,
            perturb_scale=args.perturb_scale, data_seed=args.seed, optimizer=opt,
        )
        log.info("running %d runs for variant %s", args.runs, var)
        runs = run_experiment(cfg)
        all_runs.extend(runs)
        summaries.append(summarize_runs(runs))
        write_runs_csv(f"{args.out_prefix}_{var}.csv", runs)
    extra = {}
    if args.variant == "both":
        write_histogram_csv(
            f"{args.out_prefix}_histogram.csv", all_runs, max_epochs=args.max_epochs
        )
        extra["gate"] = escape_gate(*summaries)
    text = summary_to_json(summaries, **extra)
    with open(f"{args.out_prefix}_summary.json", "w") as f:
        f.write(text)
    print(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="linsaddle",
        description="Critical points of the square loss of deep linear networks: "
        "construction, classification, curvature certificates and escape "
        "experiments.",
    )
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    p.add_argument("-v", "--verbose", action="store_true")
    sub = p.add_subparsers(dest="command", required=True)

    def add_data_args(q):
        q.add_argument("--x", required=True, help="input matrix CSV (d_x x m)")
        q.add_argument("--y", required=True, help="target matrix CSV (d_y x m)")

    def add_tol_args(q):
        q.add_argument("--tol-rank", type=float, default=None,
                       help="relative singular-value threshold for rank decisions")
        q.add_argument("--tol-crit", type=float, default=None,
                       help="absolute gradient-norm threshold for criticality")

    q = sub.add_parser("gen-data", help="generate Gaussian data CSVs")
    q.add_argument("--dx", type=int, required=True)
    q.add_argument("--dy", type=int, required=True)
    q.add_argument("--m", type=int, required=True)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--out-prefix", required=True,
                   help="writes <prefix>_X.csv, <prefix>_Y.csv, <prefix>_report.json")
    q.set_defaults(func=cmd_gen_data)

    q = sub.add_parser("construct", help="build a critical point")
    add_data_args(q)
    q.add_argument("--dims", required=True, help="comma-separated d_0,...,d_H")
    q.add_argument("--support", default="", help="comma-separated 1-based indices")
    q.add_argument("--spec", default=None, help="spec JSON file (S, Z, D)")
    q.add_argument("--variant", choices=["tightened", "non_tightened"], default=None,
                   help="build a reference example family instead")
    q.add_argument("--r", type=int, default=0, help="support size for --variant")
    q.add_argument("--out", default=None, help="also write weights JSON here")
    q.set_defaults(func=cmd_construct)

    q = sub.add_parser("classify", help="classify a critical point")
    add_data_args(q)
    q.add_argument("--weights", required=True, help="weights JSON file")
    add_tol_args(q)
    q.set_defaults(func=cmd_classify)

    q = sub.add_parser("canonicalize", help="recover the (S, Z, D) form")
    add_data_args(q)
    q.add_argument("--weights", required=True)
    add_tol_args(q)
    q.set_defaults(func=cmd_canonicalize)

    q = sub.add_parser("probe", help="smallest Hessian eigenvalue")
    add_data_args(q)
    q.add_argument("--weights", required=True)
    q.add_argument("--mode", choices=["dense", "probe"], default="dense")
    q.add_argument("--tol-eig", type=float, default=1e-6,
                   help="probe mode: stop the Lanczos probe when its Ritz residual "
                        "is at most this times the largest Ritz value's magnitude; "
                        "must be finite and nonnegative")
    q.add_argument("--samples", type=int, default=5,
                   help="random directions to sample c2 along")
    q.add_argument("--sample-seed", type=int, default=0)
    q.set_defaults(func=cmd_probe)

    q = sub.add_parser("enumerate", help="list all critical values")
    add_data_args(q)
    q.add_argument("--dims", required=True)
    q.set_defaults(func=cmd_enumerate)

    q = sub.add_parser("experiment", help="saddle-escape experiment")
    q.add_argument("--dims", required=True)
    q.add_argument("--m", type=int, required=True)
    q.add_argument("--r", type=int, required=True)
    q.add_argument("--variant", choices=["tightened", "non_tightened", "both"],
                   required=True)
    q.add_argument("--runs", type=int, default=100)
    q.add_argument("--max-epochs", type=int, default=2000)
    q.add_argument("--optimizer", choices=["adam", "gd"], default="adam")
    q.add_argument("--lr", type=float, default=0.001)
    q.add_argument("--perturb-scale", type=float, default=0.1)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--out-prefix", required=True)
    q.set_defaults(func=cmd_experiment)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(message)s",
    )
    try:
        return args.func(args)
    except InternalInconsistency as err:
        log.error("internal inconsistency: %s", err)
        return 3
    except LinSaddleError as err:
        log.error("%s: %s", type(err).__name__, err)
        return 2
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as err:
        log.error("%s: %s", type(err).__name__, err)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Measurement machinery shared by every workload: the span tracer that wraps
the library from outside, per-layer aggregation, and the statistics the
benchmark reports.

Nothing here starts a thread or process, and importing it changes nothing in
the library; the tracer only patches module namespaces between ``install``
and ``uninstall``.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import inspect
import json
import os
import platform
import resource
import statistics
import sys
import zlib
from array import array
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

# The library modules treated as layers.  ``cli`` is left out on purpose: its
# cost is process start-up and JSON/CSV I/O, not numerical work.
LAYERS = ("data_model", "network", "critical_points", "classifier", "curvature", "experiments")

# Methods wrapped on their class before any instance is made.
METHODS = (
    ("curvature", "CurvatureCache", "__init__"),
    ("curvature", "CurvatureCache", "c2"),
    ("curvature", "CurvatureCache", "hessian_matvec"),
    ("network", "_LayerStack", "__init__"),
)

# Per-layer metrics: (metric, unit, span names, statistic).  "self" sums the
# self time of the named spans, "calls" counts them, "calls_under" counts the
# first span name when its parent is the second, "bytes" sums the sizes
# recorded for the span.
PER_LAYER = (
    ("network.gradient_calls", "count", ("network.gradient",), "calls"),
    ("network.gradient_s", "s", ("network.gradient",), "self"),
    ("network.loss_calls", "count", ("network.loss",), "calls"),
    ("network.loss_s", "s", ("network.loss",), "self"),
    ("network.weights_built", "count", ("network._LayerStack.__init__",), "calls"),
    ("network.weights_built_s", "s", ("network._LayerStack.__init__",), "self"),
    ("experiments.run_optimizer_self_s", "s", ("experiments.run_optimizer",), "self"),
    ("experiments.epochs", "count", ("network.gradient", "experiments.run_optimizer"), "calls_under"),
    ("critical_points.support_s", "s", ("critical_points.associated_support",), "self"),
    ("critical_points.clem_d_s", "s", ("critical_points.clem_d_matrix",), "self"),
    ("critical_points.canonical_form_s", "s", ("critical_points.canonical_form",), "self"),
    ("classifier.classify_self_s", "s", ("classifier.classify",), "self"),
    ("classifier.pivots_analyzed", "count", ("classifier.analyze_pivot",), "calls"),
    ("classifier.pivots_s", "s", ("classifier.analyze_pivot", "classifier.pivot_blocks",
                                  "classifier.all_pivots", "classifier.is_tightened"), "self"),
    ("curvature.witness_s", "s", ("curvature.witness_eigenswap", "curvature.witness_untightened"), "self"),
    ("curvature.cache_build_s", "s", ("curvature.CurvatureCache.__init__",), "self"),
    ("curvature.c2_calls", "count", ("curvature.CurvatureCache.c2",), "calls"),
    ("curvature.c2_s", "s", ("curvature.CurvatureCache.c2",), "self"),
    ("curvature.matvecs", "count", ("curvature.CurvatureCache.hessian_matvec",), "calls"),
    ("curvature.matvecs_s", "s", ("curvature.CurvatureCache.hessian_matvec",), "self"),
    ("curvature.ftst_s", "s", ("curvature.ft_st_decomposition",), "self"),
    ("data_model.bundle_calls", "count", ("data_model.build_sigma_bundle",), "calls"),
    ("data_model.bundle_s", "s", ("data_model.build_sigma_bundle",), "self"),
    ("data_model.assumption_check_s", "s", ("data_model.check_assumption_h",), "self"),
    ("data_model.bundle_bytes", "bytes", ("data_model.build_sigma_bundle",), "bytes"),
)
OVERHEAD_METRIC = ("trace.overhead_pct", "%")


def rebind(replacements: dict) -> list:
    """Bind each replacement in every ``linsaddle`` module namespace that
    bound its original ({id(original): (original, replacement)}).  Returns
    (module, attribute, original) entries for ``restore``."""
    undo = []
    for name, mod in sorted(sys.modules.items()):
        if mod is None or not (name == "linsaddle" or name.startswith("linsaddle.")):
            continue
        for attr, obj in list(vars(mod).items()):
            hit = replacements.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])
                undo.append((mod, attr, obj))
    return undo


def restore(undo: list) -> None:
    for owner, attr, orig in reversed(undo):
        setattr(owner, attr, orig)
    undo.clear()


def _bundle_nbytes(bundle) -> int:
    """Bytes held by the arrays of a SigmaBundle, computed from their sizes."""
    return sum(v.nbytes for v in vars(bundle).values() if isinstance(v, np.ndarray))


SIZERS = {"data_model.build_sigma_bundle": _bundle_nbytes}


class Tracer:
    """Records spans (name, start, end, parent) around every public function
    of the layer modules, plus the wrapped methods in METHODS.

    ``install`` replaces each function in every ``linsaddle`` module
    namespace that bound it, because the library imports functions by name
    (``classifier`` does ``from .network import gradient``).  Spans are kept
    in flat arrays in memory; ``active`` pauses recording without
    unwrapping, so check code can call the library unseen.
    """

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_idx = array("q")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.nbytes = array("q")
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self.active = False

    # -- recording -------------------------------------------------------
    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_idx.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self.nbytes.append(0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, recorded while active."""
        idx = self._open(self._name_id(name)) if self.active else None
        try:
            yield
        finally:
            if idx is not None:
                self._close(idx)

    def _wrap(self, fn, name: str):
        nid = self._name_id(name)
        sizer = SIZERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = tracer._open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if sizer is not None:
                tracer.nbytes[idx] = sizer(out)
            return out

        return traced

    # -- installation ----------------------------------------------------
    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"linsaddle.{layer}")
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                wrappers[id(obj)] = (obj, self._wrap(obj, f"{layer}.{attr}"))
        self._undo = rebind(wrappers)
        for layer, cls_name, meth in METHODS:
            cls = getattr(importlib.import_module(f"linsaddle.{layer}"), cls_name)
            orig = cls.__dict__[meth]
            setattr(cls, meth, self._wrap(orig, f"{layer}.{cls_name}.{meth}"))
            self._undo.append((cls, meth, orig))

    def uninstall(self) -> None:
        self.active = False
        restore(self._undo)

    # -- reading ---------------------------------------------------------
    def mark(self) -> int:
        return len(self.start)

    def call_counts(self, lo: int, hi: int) -> tuple:
        """Calls per span name among spans [lo, hi), as a sorted tuple."""
        counts = np.bincount(np.frombuffer(self.name_idx, dtype=np.int64)[lo:hi],
                             minlength=len(self.names))
        return tuple((self.names[i], int(c)) for i, c in enumerate(counts) if c)

    def aggregate(self, lo: int, hi: int) -> dict:
        """Per-name calls, self seconds and recorded bytes over spans [lo, hi)."""
        sl = slice(lo, hi)
        return aggregate_spans(
            [self.names[i] for i in self.name_idx[sl]],
            list(self.start[sl]), list(self.end[sl]),
            [p - lo if p >= lo else -1 for p in self.parent[sl]],
            list(self.nbytes[sl]),
        )

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name_idx=np.frombuffer(self.name_idx, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            nbytes=np.frombuffer(self.nbytes, dtype=np.int64),
        )


def aggregate_spans(names, starts, ends, parents, nbytes=None) -> dict:
    """Self time is a span's duration minus the time its child spans cover.

    Children of one span never overlap (the program is single-threaded), so
    the covered time is the sum of their durations.  Returns
    {name: {"calls", "self_s", "bytes", "parents": {parent name: calls}}}.
    """
    n = len(names)
    dur = [ends[i] - starts[i] for i in range(n)]
    child = [0.0] * n
    for i in range(n):
        if parents[i] >= 0:
            child[parents[i]] += dur[i]
    out: dict = {}
    for i in range(n):
        rec = out.setdefault(names[i], {"calls": 0, "self_s": 0.0, "bytes": 0, "parents": {}})
        rec["calls"] += 1
        rec["self_s"] += dur[i] - child[i]
        rec["bytes"] += nbytes[i] if nbytes is not None else 0
        pname = names[parents[i]] if parents[i] >= 0 else None
        rec["parents"][pname] = rec["parents"].get(pname, 0) + 1
    return out


def per_layer_values(agg: dict) -> dict:
    """Map an aggregate from ``aggregate_spans`` onto the PER_LAYER metrics."""
    out = {}
    for metric, _unit, names, stat in PER_LAYER:
        if stat == "calls":
            out[metric] = sum(agg.get(n, {}).get("calls", 0) for n in names)
        elif stat == "self":
            out[metric] = sum(agg.get(n, {}).get("self_s", 0.0) for n in names)
        elif stat == "bytes":
            out[metric] = sum(agg.get(n, {}).get("bytes", 0) for n in names)
        elif stat == "calls_under":
            out[metric] = agg.get(names[0], {}).get("parents", {}).get(names[1], 0)
        else:
            raise ValueError(f"unknown statistic {stat!r}")
    return out


# ---------------------------------------------------------------------------
# Host-speed calibration.
# ---------------------------------------------------------------------------

# The host alternates between a fast mode and a mode up to ~1.9x slower, in
# spells from under a second to tens of seconds.  At a given moment the
# slowdown hits similar work alike, so every timed interval is divided by a
# reference kernel's time measured next to it, and reported in reference
# seconds: the wall time the interval takes when the kernel runs at its
# nominal speed (its fast-mode time on the 2-core box the bounds were set
# on).  Small-matrix work and large dense linear algebra slow down by
# different amounts, so there is one kernel for each.
_REF_RNG = np.random.default_rng(12345)
_REF_SQUARE = [_REF_RNG.standard_normal((n, n)) for n in (4, 8, 12)]
_REF_CHAIN = _REF_RNG.standard_normal((20, 20))
_REF_X = _REF_RNG.standard_normal((20, 100))
_REF_GEMM = _REF_RNG.standard_normal((300, 300))
_REF_STREAM = _REF_RNG.standard_normal(1 << 21)  # 16 MiB


def small_kernel() -> None:
    """Small SVDs and products behind Python calls, and a chain of 20 x 20
    layer products: the shape of the work in escape, certify and deep_probe."""
    for _ in range(15):
        for M in _REF_SQUARE:
            B = M @ M.T
            np.linalg.svd(M)
            float(np.sum(B * B))
    P = _REF_X
    for _ in range(24):
        P = _REF_CHAIN @ P
    float(np.sum(P * P))


def dense_kernel() -> None:
    """A 300 x 300 matrix product and a pass over 16 MiB: the shape of the
    m x m work in large_m."""
    _REF_GEMM @ _REF_GEMM
    float(np.dot(_REF_STREAM, _REF_STREAM))


# kernel name -> (kernel, nominal seconds)
REFERENCE_KERNELS = {
    "small": (small_kernel, 0.0015),
    "dense": (dense_kernel, 0.0026),
}


class Calibration:
    """Reference-kernel readings, one kernel call each, at most every
    INTERVAL_S: between operations and, through ``checkpoint``, inside long
    ones.  The host's slow spells also come in bursts shorter than a second,
    so readings are frequent and short.  A reading's own time is not counted
    in the operation around it."""

    INTERVAL_S = 0.05
    WINDOW_S = 0.2

    def __init__(self, kernel: str):
        self.kernel, self.nominal_s = REFERENCE_KERNELS[kernel]
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.values: list[float] = []

    def sample(self) -> None:
        start = perf_counter()
        self.kernel()
        end = perf_counter()
        self.starts.append(start)
        self.ends.append(end)
        self.values.append(end - start)

    def maybe_sample(self) -> bool:
        """Take a reading if the last one is older than INTERVAL_S."""
        if self.ends and perf_counter() - self.ends[-1] < self.INTERVAL_S:
            return False
        self.sample()
        return True

    def checkpoint(self, fn):
        """Wrap fn so that each call may first take a reading."""

        @functools.wraps(fn)
        def checkpointed(*args, **kwargs):
            self.maybe_sample()
            return fn(*args, **kwargs)

        return checkpointed

    def reference_s(self, t0: float, t1: float) -> float:
        """Reference seconds for the wall interval [t0, t1].  Readings inside
        the interval cut it into segments; each segment is scaled by the mean
        of the readings on its two sides."""
        i = bisect.bisect_right(self.starts, t0)  # first reading inside
        j = bisect.bisect_left(self.starts, t1)  # first reading after
        bounds = [t0] + [t for k in range(i, j) for t in (self.starts[k], self.ends[k])] + [t1]
        n_read = len(self.values)
        # A side's speed is the median of the readings within WINDOW_S of the
        # nearest one, on that side.
        def side(k, step):
            if not 0 <= k < n_read:
                return None
            near = [self.values[k]]
            m = k + step
            while 0 <= m < n_read and abs(self.starts[m] - self.starts[k]) <= self.WINDOW_S:
                near.append(self.values[m])
                m += step
            return median(near)

        before = [side(k, -1) for k in range(i - 1, j)]
        after = [side(k, +1) for k in range(i, j + 1)]
        total = 0.0
        for n in range(j - i + 1):
            sides = [v for v in (before[n], after[n]) if v is not None]
            total += (bounds[2 * n + 1] - bounds[2 * n]) * self.nominal_s * len(sides) / sum(sides)
        return total

    def factor(self, t0: float, t1: float) -> float:
        """Reference seconds per wall second over [t0, t1]."""
        return self.reference_s(t0, t1) / (t1 - t0)


class SeededStarts:
    """Start vectors for scipy's Lanczos solver, drawn from the workload seed.

    ``hessian_min_eig(mode="probe")`` calls ``eigsh`` with neither ``v0``
    nor ``rng``, so scipy draws the start vector from operating-system
    entropy on every call, and the matvec count and the returned eigenvalue
    change from call to call.  Between ``install`` and ``uninstall`` such a
    call gets ``rng = default_rng([seed, crc32(op key), n])`` for the n-th
    call of the current operation (see ``begin``).  A seed then fixes the
    start vectors as it fixes the other inputs, and every pass repeats them.
    A caller that passes ``v0`` or ``rng`` itself is left alone."""

    def __init__(self, seed: int):
        self.seed = seed
        self._op = 0
        self._calls = 0
        self._undo: list[tuple] = []

    def begin(self, key: str) -> None:
        """Start the draws of operation `key` from its first call."""
        self._op = zlib.crc32(key.encode())
        self._calls = 0

    def wrap(self, eigsh):
        @functools.wraps(eigsh)
        def seeded(*args, **kwargs):
            # eigsh(A, k, M, sigma, which, v0, ...): a sixth positional is v0.
            if len(args) < 6 and kwargs.get("v0") is None and kwargs.get("rng") is None:
                kwargs["rng"] = np.random.default_rng([self.seed, self._op, self._calls])
            self._calls += 1
            return eigsh(*args, **kwargs)

        return seeded

    def install(self) -> None:
        """Replace ``scipy.sparse.linalg.eigsh``, and any ``linsaddle``
        module's own binding of it."""
        import scipy.sparse.linalg as sla

        orig = sla.eigsh
        seeded = self.wrap(orig)
        self._undo = [(sla, "eigsh", orig)] + rebind({id(orig): (orig, seeded)})
        sla.eigsh = seeded

    def uninstall(self) -> None:
        restore(self._undo)


# ---------------------------------------------------------------------------
# Statistics and reporting.
# ---------------------------------------------------------------------------

def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    return float(np.quantile(np.asarray(values, dtype=float), q))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def metric_specs(section: str) -> list:
    """(name, unit) pairs of one section of BENCHMARK.json."""
    spec = json.loads(BENCHMARK_JSON.read_text())
    return [(m["name"], m["unit"]) for m in spec[section]]


def machine_info(blas_threads: int) -> dict:
    info = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads_fixed": blas_threads,
    }
    try:
        import scipy

        info["scipy"] = scipy.__version__
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["numpy_blas"] = f"{blas.get('name')} {blas.get('version')}"
        sblas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["scipy_blas"] = f"{sblas.get('name')} {sblas.get('version')}"
    except (ImportError, KeyError, TypeError) as err:  # report, do not fail
        info["blas_info_error"] = repr(err)
    return info

"""Tests of the benchmark harness itself: span accounting, metric names and
the output checks.  Run with ``python3 -m pytest perfbench/tests``."""

import json
import sys
from dataclasses import replace
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import linsaddle as ls  # noqa: E402

import harness  # noqa: E402
import run as bench_run  # noqa: E402
import workloads as wl  # noqa: E402


def failed_names(results):
    return sorted({name for name, ok, _ in results if not ok})


@pytest.fixture(scope="module")
def tight_point():
    data = ls.generate_gaussian_data(6, 4, 30, seed=3)
    bundle = ls.build_sigma_bundle(data)
    shape = ls.NetworkShape((6, 5, 5, 4))
    w = ls.build_example_family(1, "tightened", bundle, shape)
    return data, bundle, shape, w


# -- span accounting ----------------------------------------------------------

def test_self_time_subtracts_children_at_every_level():
    # root [0, 10] -> a [1, 4] -> leaf [2, 3]; root -> b [5, 9]
    names = ["root", "a", "leaf", "b"]
    agg = harness.aggregate_spans(names, [0.0, 1.0, 2.0, 5.0], [10.0, 4.0, 3.0, 9.0],
                                  [-1, 0, 1, 0])
    assert agg["root"]["self_s"] == pytest.approx(3.0)
    assert agg["a"]["self_s"] == pytest.approx(2.0)
    assert agg["leaf"]["self_s"] == pytest.approx(1.0)
    assert agg["b"]["self_s"] == pytest.approx(4.0)
    assert sum(r["self_s"] for r in agg.values()) == pytest.approx(10.0)
    assert agg["leaf"]["parents"] == {"a": 1}


def test_self_time_sums_repeated_calls_of_one_name():
    names = ["f", "g", "f", "g"]
    agg = harness.aggregate_spans(names, [0.0, 0.5, 2.0, 2.25], [1.0, 0.75, 3.0, 2.5],
                                  [-1, 0, -1, 2])
    assert agg["f"]["calls"] == 2
    assert agg["f"]["self_s"] == pytest.approx(0.75 + 0.75)
    assert agg["g"]["self_s"] == pytest.approx(0.5)


def test_tracer_wraps_every_namespace_and_restores_it(tight_point):
    data, bundle, shape, w = tight_point
    import linsaddle.classifier as classifier
    import linsaddle.network as network

    original = network.gradient
    tracer = harness.Tracer()
    tracer.install()
    try:
        # classifier imported gradient by name; its binding is wrapped too.
        assert classifier.gradient is not original
        assert ls.gradient is classifier.gradient
        tracer.active = True
        t0 = perf_counter()
        ls.classify(w, bundle, data)
        elapsed = perf_counter() - t0
        tracer.active = False
        ls.classify(w, bundle, data)  # paused: records nothing
    finally:
        tracer.uninstall()
    assert network.gradient is original and classifier.gradient is original
    assert "__init__" not in vars(network.Weights)

    agg = tracer.aggregate(0, tracer.mark())
    assert agg["classifier.classify"]["calls"] == 1
    assert agg["classifier.classify"]["parents"] == {None: 1}
    assert agg["network.gradient"]["parents"].get("classifier.classify", 0) >= 1
    assert agg["classifier.analyze_pivot"]["calls"] == 3  # H = 3: three pivots
    # Self times partition the root span's duration.
    total_self = sum(r["self_s"] for r in agg.values())
    root = [i for i, p in enumerate(tracer.parent) if p == -1]
    assert len(root) == 1
    assert total_self == pytest.approx(tracer.end[0] - tracer.start[0], rel=1e-9)
    assert total_self <= elapsed
    values = harness.per_layer_values(agg)
    assert values["classifier.pivots_analyzed"] == 3


def test_bundle_bytes_are_computed_from_array_sizes():
    data = ls.generate_gaussian_data(5, 3, 20, seed=1)
    tracer = harness.Tracer()
    tracer.install()
    try:
        tracer.active = True
        bundle = ls.build_sigma_bundle(data)
        tracer.active = False
    finally:
        tracer.uninstall()
    expect = sum(a.nbytes for a in vars(bundle).values() if isinstance(a, np.ndarray))
    values = harness.per_layer_values(tracer.aggregate(0, tracer.mark()))
    assert values["data_model.bundle_bytes"] == expect
    assert values["data_model.bundle_calls"] == 1


# -- metric names -------------------------------------------------------------

def test_per_layer_table_matches_benchmark_json():
    spec = json.loads(harness.BENCHMARK_JSON.read_text())
    table = [(m, u) for m, u, _, _ in harness.PER_LAYER] + [harness.OVERHEAD_METRIC]
    assert table == [(m["name"], m["unit"]) for m in spec["per_layer"]]


@pytest.mark.parametrize("trace", [False, True])
def test_emitted_metric_names_match_benchmark_json(trace, capsys):
    result = bench_run.run_workload("large_m", seed=5, seconds=1e-3, trace=trace)
    section = "per_layer" if trace else "end_to_end"
    spec = json.loads(harness.BENCHMARK_JSON.read_text())
    assert list(result["metrics"]) == [m["name"] for m in spec[section]]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    for m in spec[section]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    report = capsys.readouterr().out
    assert "large_m.bundle_s" in report and "large_m.certificate_s" in report


# -- checks fire on wrong results ---------------------------------------------

def summary(median, never=0.0):
    return {"median_escape_epoch": median, "fraction_never_escaped": never}


def test_escape_gate_passes_and_fires():
    assert failed_names(wl.escape_gate(summary(100.0), summary(30.0))) == []
    assert failed_names(wl.escape_gate(summary(None, 0.6), summary(30.0))) == []
    assert failed_names(wl.escape_gate(summary(80.0), summary(30.0))) == ["c8_ratio_ge_3x"]
    assert failed_names(wl.escape_gate(summary(100.0), summary(30.0, never=0.2))) == [
        "c8_non_tightened_escapes"]
    assert failed_names(wl.escape_gate(summary(100.0), summary(None, 0.6))) == [
        "c8_non_tightened_escapes", "c8_non_tightened_median", "c8_ratio_ge_3x"]


def test_certify_checks_fire_on_wrong_verdict_support_and_witness():
    point = SimpleNamespace(support=(1, 2), unit_verdict="strict_saddle", directions=())
    good = SimpleNamespace(verdict="strict_saddle", support=(1, 2), witness_c2=-0.5)
    assert failed_names(wl.certify_checks(point, SimpleNamespace(cls=good))) == []
    bad = SimpleNamespace(verdict="strict_saddle", support=(1, 3), witness_c2=0.5)
    assert failed_names(wl.certify_checks(point, SimpleNamespace(cls=bad))) == [
        "support", "witness_c2_negative"]
    other = SimpleNamespace(verdict="global_minimizer", support=(1, 2), witness_c2=None)
    assert failed_names(wl.certify_checks(point, SimpleNamespace(cls=other))) == [
        "verdict_scale_invariant"]


def test_sos_check_fires_on_a_wrong_certificate(tight_point):
    data, bundle, shape, w = tight_point
    rng = np.random.default_rng(0)
    v = wl.random_direction(shape, rng)
    dec = ls.ft_st_decomposition(w, v, bundle, data)
    c2 = ls.c2_value(w, v, data)
    assert failed_names(wl.sos_checks([dec], [c2])) == []
    wrong = replace(dec, a1=dec.a1 + 1e-4 * max(1.0, abs(c2)))
    assert failed_names(wl.sos_checks([wrong], [c2])) == ["sos_c2_matches"]
    point = SimpleNamespace(support=(1,), unit_verdict="non_strict_saddle", directions=(v,))
    res = SimpleNamespace(cls=SimpleNamespace(verdict="non_strict_saddle", support=(1,)),
                          data=data, w_canonical=w, decs=[wrong])
    assert failed_names(wl.certify_checks(point, res)) == ["sos_c2_matches"]
    cls = ls.classify(w, bundle, data)
    assert failed_names(wl.large_checks(w, cls, [dec], data, [v])) == ["support"]
    assert failed_names(wl.large_checks(w, replace(cls, verdict="strict_saddle"), [dec],
                                        data, [v])) == ["support", "verdict"]


def test_rayleigh_checks_fire_on_a_wrong_eigenvalue():
    ray = [0.5, 2.0, 7.0]
    assert failed_names(wl.rayleigh_checks("tightened", "non_strict_saddle", 0.0, ray)) == []
    assert failed_names(wl.rayleigh_checks("tightened", "non_strict_saddle", 0.1, ray)) == [
        "nonstrict_lambda_sign"]
    assert failed_names(wl.rayleigh_checks("tightened", "non_strict_saddle", 3.0, ray)) == [
        "nonstrict_lambda_sign", "rayleigh_bound"]
    strict = [-4.0, 1.0]
    assert failed_names(wl.rayleigh_checks("non_tightened", "strict_saddle", -5.0, strict)) == []
    assert failed_names(wl.rayleigh_checks("non_tightened", "strict_saddle", -3.0, strict)) == [
        "rayleigh_bound"]
    assert failed_names(wl.rayleigh_checks("non_tightened", "non_strict_saddle", -5.0,
                                           strict)) == ["verdict"]


def make_run():
    workload = wl.Workload("fake", "test", setup=None, ops=None, headline=None)
    return bench_run.Run(workload, harness.Tracer(), ls.LinSaddleError)


def test_runner_counts_raised_and_nondeterministic_operations_as_failed(capsys):
    run = make_run()
    outputs = iter([1, 1, 2])
    op = wl.Op("k", run=lambda st: next(outputs), check=lambda r: [("ok", True, "")],
               fingerprint=lambda r: r)
    for _ in range(3):
        run.execute(op)
    # One operation however often it runs; it failed once, so it failed.
    assert (run.attempted, run.failed) == (1, 1)
    assert run.checks["deterministic"] == [1, 1]

    def refuse(st):
        raise ls.InternalInconsistency("refused")

    run.execute(wl.Op("r", run=refuse, check=None, fingerprint=None))
    assert (run.attempted, run.failed, run.unexpected) == (2, 2, 0)
    assert run.checks["raised"] == [0, 1]

    def crash(st):
        raise ZeroDivisionError("bug")

    run.execute(wl.Op("c", run=crash, check=None, fingerprint=None))
    assert (run.attempted, run.failed, run.unexpected) == (3, 3, 1)
    assert "ZeroDivisionError" in capsys.readouterr().err


def test_runner_counts_each_operation_once_however_often_it_runs():
    run = make_run()
    good = wl.Op("g", run=lambda st: 0, check=lambda r: [("ok", True, "")], fingerprint=lambda r: r)
    bad = wl.Op("b", run=lambda st: 0, check=lambda r: [("ok", False, "")], fingerprint=lambda r: r)
    for _ in range(4):
        run.execute(good)
    run.execute(bad)
    assert (run.attempted, run.failed) == (2, 1)
    assert run.checks["ok"] == [4, 1]


def test_seeded_starts_fix_the_lanczos_start_vector_and_restore_eigsh():
    import scipy.sparse.linalg as sla

    starts = harness.SeededStarts(7)
    seen = []
    record = starts.wrap(lambda *args, **kwargs: seen.append(kwargs))
    for key in ("a", "a", "b"):
        starts.begin(key)
        record("A", 1)
        record("A", 1)
    first = [kw["rng"].uniform(size=3) for kw in seen]
    # Same operation and call: same draws; another call or operation: others.
    assert np.array_equal(first[0], first[2]) and np.array_equal(first[1], first[3])
    assert not np.array_equal(first[0], first[1]) and not np.array_equal(first[0], first[4])
    # A caller's own rng or v0 is passed through untouched.
    own = np.random.default_rng(1)
    seen.clear()
    record("A", 1, rng=own)
    record("A", 1, v0=np.ones(3))
    assert seen[0]["rng"] is own and "rng" not in seen[1]

    orig = sla.eigsh
    starts.install()
    try:
        assert sla.eigsh is not orig
    finally:
        starts.uninstall()
    assert sla.eigsh is orig


def test_runner_counts_failed_checks_and_broken_checkers():
    run = make_run()
    run.execute(wl.Op("a", run=lambda st: 0, check=lambda r: [("c", False, "wrong")],
                      fingerprint=lambda r: r))

    def broken(result):
        raise ls.NotCritical("check could not run")

    run.execute(wl.Op("b", run=lambda st: 0, check=broken, fingerprint=lambda r: r),)
    assert (run.attempted, run.failed, run.unexpected) == (2, 2, 0)
    assert run.checks["c"] == [0, 1] and run.checks["check_raised"] == [0, 1]


def test_runner_stops_an_operation_that_runs_too_long(monkeypatch, capsys):
    monkeypatch.setattr(bench_run, "OP_LIMIT_S", 0.2)

    def spin(st):
        t_end = perf_counter() + 5.0
        while perf_counter() < t_end:
            pass

    run = make_run()
    t0 = perf_counter()
    run.execute(wl.Op("slow", run=spin, check=None, fingerprint=None))
    assert perf_counter() - t0 < 2.0
    assert (run.attempted, run.failed, run.unexpected) == (1, 1, 1)
    assert "OperationTimedOut" in run.examples["raised"][0]
    capsys.readouterr()

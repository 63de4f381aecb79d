import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import linsaddle as ls
from linsaddle.cli import main

from conftest import masked_critical_spec


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


@pytest.fixture()
def data_files(tmp_path, capsys):
    prefix = str(tmp_path / "toy")
    code, out = run_cli(
        capsys, "gen-data", "--dx", "6", "--dy", "4", "--m", "30",
        "--seed", "0", "--out-prefix", prefix,
    )
    assert code == 0
    return f"{prefix}_X.csv", f"{prefix}_Y.csv"


def test_gen_data_outputs(tmp_path, capsys):
    prefix = str(tmp_path / "g")
    code, out = run_cli(
        capsys, "gen-data", "--dx", "10", "--dy", "4", "--m", "100",
        "--seed", "7", "--out-prefix", prefix,
    )
    assert code == 0
    for suffix in ("_X.csv", "_Y.csv", "_report.json"):
        assert Path(prefix + suffix).exists()
    rep = json.loads(out)
    assert rep["assumption_holds"] is True
    assert len(rep["lambdas"]) == 4
    # same seed twice: byte-identical CSVs
    prefix2 = str(tmp_path / "g2")
    run_cli(capsys, "gen-data", "--dx", "10", "--dy", "4", "--m", "100",
            "--seed", "7", "--out-prefix", prefix2)
    assert Path(prefix + "_X.csv").read_bytes() == Path(prefix2 + "_X.csv").read_bytes()


def test_gen_data_rejects_bad_dims(tmp_path, capsys):
    code, _ = run_cli(
        capsys, "gen-data", "--dx", "4", "--dy", "10", "--m", "100",
        "--out-prefix", str(tmp_path / "bad"),
    )
    assert code == 2


def test_construct_classify_pipeline(tmp_path, capsys, data_files):
    x, y = data_files
    wpath = str(tmp_path / "w.json")
    code, out = run_cli(
        capsys, "construct", "--x", x, "--y", y, "--dims", "6,5,5,4",
        "--support", "1,3", "--out", wpath,
    )
    assert code == 0
    json.loads(out)  # stdout is pure JSON
    code, out = run_cli(capsys, "classify", "--x", x, "--y", y, "--weights", wpath)
    assert code == 0
    res = json.loads(out)
    assert res["verdict"] == "strict_saddle"
    assert res["support"] == [1, 3]


def test_classify_variant_families(tmp_path, capsys, data_files):
    x, y = data_files
    for variant, verdict in [
        ("tightened", "non_strict_saddle"),
        ("non_tightened", "strict_saddle"),
    ]:
        wpath = str(tmp_path / f"{variant}.json")
        code, _ = run_cli(
            capsys, "construct", "--x", x, "--y", y, "--dims", "6,5,5,4",
            "--variant", variant, "--r", "2", "--out", wpath,
        )
        assert code == 0
        code, out = run_cli(capsys, "classify", "--x", x, "--y", y,
                            "--weights", wpath)
        assert code == 0
        assert json.loads(out)["verdict"] == verdict


def test_classify_not_critical_exits_zero(tmp_path, capsys, data_files):
    x, y = data_files
    shape = ls.NetworkShape((6, 5, 5, 4))
    rng = np.random.default_rng(0)
    w = ls.Weights(
        [rng.standard_normal(shape.layer_shape(h)) for h in range(1, 4)], shape
    )
    wpath = tmp_path / "rand.json"
    wpath.write_text(ls.weights_to_json(w))
    code, out = run_cli(capsys, "classify", "--x", x, "--y", y,
                        "--weights", str(wpath))
    assert code == 0
    res = json.loads(out)
    assert res["verdict"] == "not_critical"
    assert res["grad_norm"] > 0


def test_canonicalize_roundtrip(tmp_path, capsys, data_files):
    x, y = data_files
    wpath = str(tmp_path / "w.json")
    run_cli(capsys, "construct", "--x", x, "--y", y, "--dims", "6,5,5,4",
            "--support", "2,4", "--out", wpath)
    code, out = run_cli(capsys, "canonicalize", "--x", x, "--y", y,
                        "--weights", wpath)
    assert code == 0
    spec = json.loads(out)
    assert spec["support"] == [2, 4]
    assert "certified" not in spec
    # the recovered spec feeds back into construct
    spath = tmp_path / "spec.json"
    spath.write_text(out)
    code, _ = run_cli(capsys, "construct", "--x", x, "--y", y,
                      "--dims", "6,5,5,4", "--spec", str(spath))
    assert code == 0


@pytest.fixture()
def masked_spec(tmp_path, capsys):
    """Data files for d_x=7, d_y=4, m=40 and the masked critical spec
    (Z_2 = 0, Z_4 Z_3 = 0) on widths (7, 6, 5, 6, 4), as a JSON object."""
    prefix = str(tmp_path / "deep")
    code, _ = run_cli(capsys, "gen-data", "--dx", "7", "--dy", "4", "--m", "40",
                      "--seed", "1", "--out-prefix", prefix)
    assert code == 0
    spec = masked_critical_spec(ls.NetworkShape((7, 6, 5, 6, 4)))
    return f"{prefix}_X.csv", f"{prefix}_Y.csv", json.loads(ls.spec_to_json(spec))


@pytest.mark.parametrize("certified", [None, False])
def test_construct_accepts_a_critical_spec_without_two_zero_blocks(
        tmp_path, capsys, masked_spec, certified):
    # A spec file from before the exact criticality test may still carry a
    # "certified" key; it is ignored.
    x, y, obj = masked_spec
    if certified is not None:
        obj["certified"] = certified
    spath = tmp_path / "spec.json"
    spath.write_text(json.dumps(obj))
    code, out = run_cli(capsys, "construct", "--x", x, "--y", y,
                        "--dims", "7,6,5,6,4", "--spec", str(spath))
    assert code == 0
    assert json.loads(out)["dims"] == [7, 6, 5, 6, 4]


def test_construct_refuses_a_spec_that_is_not_critical(tmp_path, capsys, masked_spec):
    x, y, obj = masked_spec
    obj["z_blocks"][3] = np.ones((2, 4)).tolist()  # Z_4 Z_3 != 0
    spath = tmp_path / "spec.json"
    spath.write_text(json.dumps(obj))
    code, _ = run_cli(capsys, "construct", "--x", x, "--y", y,
                      "--dims", "7,6,5,6,4", "--spec", str(spath))
    assert code == 2


def test_construct_refuses_a_spec_with_more_z_blocks_than_layers(tmp_path, capsys, data_files):
    x, y = data_files
    wpath = str(tmp_path / "w.json")
    run_cli(capsys, "construct", "--x", x, "--y", y, "--dims", "6,5,5,4",
            "--variant", "tightened", "--r", "2", "--out", wpath)
    code, out = run_cli(capsys, "canonicalize", "--x", x, "--y", y, "--weights", wpath)
    assert code == 0
    obj = json.loads(out)
    obj["z_blocks"].append(obj["z_blocks"][-1])
    spath = tmp_path / "spec.json"
    spath.write_text(json.dumps(obj))
    code, _ = run_cli(capsys, "construct", "--x", x, "--y", y,
                      "--dims", "6,5,5,4", "--spec", str(spath))
    assert code == 2


@pytest.mark.parametrize("variant, perturb, flag, value", [
    ("tightened", False, "--tol-rank", "-1"),
    ("non_tightened", False, "--tol-rank", "-1"),
    ("tightened", False, "--tol-rank", "nan"),
    ("tightened", True, "--tol-crit", "nan"),
    ("tightened", True, "--tol-crit", "inf"),
    ("tightened", True, "--tol-crit", "-1e-3"),
])
def test_classify_refuses_an_invalid_tolerance(tmp_path, capsys, caplog, data_files,
                                               variant, perturb, flag, value):
    # Critical example points, and the tightened one with W_1[0, 0] += 0.3,
    # which is not critical: a negative rank cut or a comparison with NaN
    # would give exit 3, a verdict or a NotCritical that names no tolerance.
    x, y = data_files
    wpath = tmp_path / "w.json"
    run_cli(capsys, "construct", "--x", x, "--y", y, "--dims", "6,5,5,4",
            "--variant", variant, "--r", "2", "--out", str(wpath))
    if perturb:
        w = ls.weights_from_json(wpath.read_text())
        layers = [M.copy() for M in w.layers]
        layers[0][0, 0] += 0.3
        wpath.write_text(ls.weights_to_json(ls.Weights(layers, w.shape)))
        code, out = run_cli(capsys, "classify", "--x", x, "--y", y, "--weights", str(wpath))
        assert code == 0 and json.loads(out)["verdict"] == "not_critical"
    code, _ = run_cli(capsys, "classify", "--x", x, "--y", y, "--weights", str(wpath),
                      f"{flag}={value}")
    assert code == 2 and "must be finite and nonnegative" in caplog.text


def test_probe_output(tmp_path, capsys, data_files):
    x, y = data_files
    wpath = str(tmp_path / "w.json")
    run_cli(capsys, "construct", "--x", x, "--y", y, "--dims", "6,5,5,4",
            "--support", "1,3", "--out", wpath)
    code, out = run_cli(capsys, "probe", "--x", x, "--y", y, "--weights", wpath)
    assert code == 0
    res = json.loads(out)
    assert res["lambda_min"] < 0  # strict saddle
    assert len(res["c2_samples"]) == 5
    assert res["witness"] is not None and res["witness"]["c2"] < 0


@pytest.mark.parametrize("mode", ["dense", "probe"])
def test_probe_reports_no_witness_at_a_non_strict_saddle(tmp_path, capsys, data_files, mode):
    # lambda_min is 0 up to rounding of either sign (dense eigh gives about
    # -5e-14 here); its eigenvector's c2 is no certifiably negative witness.
    x, y = data_files
    wpath = str(tmp_path / "w.json")
    run_cli(capsys, "construct", "--x", x, "--y", y, "--dims", "6,5,5,4",
            "--variant", "tightened", "--r", "2", "--out", wpath)
    code, out = run_cli(capsys, "classify", "--x", x, "--y", y, "--weights", wpath)
    assert code == 0 and json.loads(out)["verdict"] == "non_strict_saddle"
    code, out = run_cli(capsys, "probe", "--x", x, "--y", y, "--weights", wpath,
                        "--mode", mode)
    assert code == 0
    res = json.loads(out)
    assert abs(res["lambda_min"]) <= 1e-6
    assert res["witness"] is None


@pytest.mark.parametrize("mode", ["dense", "probe"])
@pytest.mark.parametrize("value", ["inf", "nan", "-1"])
def test_probe_refuses_an_invalid_tolerance(tmp_path, capsys, caplog, data_files, mode, value):
    # At this strict saddle --tol-eig=inf gave lambda_min 0.329 with exit 0,
    # where the dense Hessian gives -21.9.
    x, y = data_files
    wpath = str(tmp_path / "w.json")
    run_cli(capsys, "construct", "--x", x, "--y", y, "--dims", "6,5,5,4",
            "--variant", "non_tightened", "--r", "2", "--out", wpath)
    code, out = run_cli(capsys, "probe", "--x", x, "--y", y, "--weights", wpath,
                        "--mode", mode, f"--tol-eig={value}")
    assert code == 2 and out == ""
    assert "probe tolerance must be finite and nonnegative" in caplog.text


def test_enumerate(capsys, data_files):
    x, y = data_files
    code, out = run_cli(capsys, "enumerate", "--x", x, "--y", y,
                        "--dims", "6,5,5,4")
    assert code == 0
    entries = json.loads(out)
    assert len(entries) == 16
    vals = [e["value"] for e in entries]
    assert vals == sorted(vals)


def test_experiment_command(tmp_path, capsys):
    prefix = str(tmp_path / "exp")
    code, out = run_cli(
        capsys, "experiment", "--dims", "6,5,5,4", "--m", "30", "--r", "2",
        "--variant", "both", "--runs", "2", "--max-epochs", "30",
        "--out-prefix", prefix,
    )
    assert code == 0
    assert Path(f"{prefix}_tightened.csv").exists()
    assert Path(f"{prefix}_non_tightened.csv").exists()
    assert Path(f"{prefix}_histogram.csv").exists()
    summary = json.loads(Path(f"{prefix}_summary.json").read_text())
    assert len(summary["variants"]) == 2
    assert json.loads(out) == summary


def test_experiment_summary_reports_the_gate(tmp_path, capsys):
    prefix = str(tmp_path / "exp")
    args = ["experiment", "--dims", "6,5,5,4", "--m", "30", "--r", "2", "--runs", "2",
            "--max-epochs", "300", "--out-prefix", prefix]
    code, out = run_cli(capsys, *args, "--variant", "both")
    assert code == 0
    summary = json.loads(out)
    tight, loose = summary["variants"]
    gate = summary["gate"]
    if tight["median_escape_epoch"] is None or loose["median_escape_epoch"] is None:
        assert gate is None
    else:
        ratio = tight["median_escape_epoch"] / loose["median_escape_epoch"]
        assert gate["median_ratio"] == pytest.approx(ratio)
        assert gate["margin"] == pytest.approx(ratio - 3.0)
    code, out = run_cli(capsys, *args, "--variant", "tightened")
    assert code == 0 and "gate" not in json.loads(out)


def test_missing_file_exits_two(tmp_path, capsys, data_files):
    x, y = data_files
    code, _ = run_cli(capsys, "classify", "--x", x, "--y", y,
                      "--weights", str(tmp_path / "nope.json"))
    assert code == 2


def test_malformed_weights_exits_two(tmp_path, capsys, data_files):
    x, y = data_files
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _ = run_cli(capsys, "classify", "--x", x, "--y", y,
                      "--weights", str(bad))
    assert code == 2


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert ls.__version__ in capsys.readouterr().out


def test_import_loads_numpy_only():
    # A fresh interpreter, so that modules other tests imported do not count.
    src = str(Path(ls.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import linsaddle, linsaddle.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True,
                         check=True, timeout=60).stdout
    assert out.strip() == "[]"


def test_empty_support_builds_the_zero_point(capsys, data_files):
    x, y = data_files
    code, out = run_cli(capsys, "construct", "--x", x, "--y", y, "--dims", "6,5,5,4",
                        "--support", "")
    assert code == 0
    assert not any(np.any(L) for L in ls.weights_from_json(out).layers)


def test_internal_inconsistency_exits_three(tmp_path, capsys, data_files, monkeypatch):
    from linsaddle import cli

    def inconsistent(*a, **k):
        raise ls.InternalInconsistency("pivot ranks not monotone")

    monkeypatch.setattr(cli, "classify", inconsistent)
    x, y = data_files
    wpath = tmp_path / "w.json"
    run_cli(capsys, "construct", "--x", x, "--y", y, "--dims", "6,5,5,4",
            "--support", "1", "--out", str(wpath))
    code, out = run_cli(capsys, "classify", "--x", x, "--y", y, "--weights", str(wpath))
    assert code == 3 and out == ""

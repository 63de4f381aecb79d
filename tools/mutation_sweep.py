"""Mutation sweep: every listed one-line mutant of src/ and every switched-off
raise must fail tests/.

Each listed mutant replaces one piece of source text that occurs exactly once
in its file: a documented threshold, a self-check, an index range of the
sum-of-squares certificate, the adjacent pivot's rank without an SVD, two
terms of the Adam step, the support record's bundle-identity test, and one
sanity mutant that any working suite kills.  Besides these, every
``raise`` statement of src/ gives one mutant, addressed by file and line
(two raises may read alike), in which ``raise X(...)`` becomes the bare call
``X(...)``: the exception is made and dropped, and the code runs on.  So a
check that no test fires shows up as a survivor.  The script copies the whole
tree into a temporary directory (a copy of src/ alone would test nothing:
pyproject.toml puts the checkout's src/ first on the path), runs tests/
there once unmutated and then once per mutant, stopping each run at its
first failure, and exits nonzero if the unmutated run fails or any mutant
survives.  Each listed mutant names the test file that pins it; a raise
mutant of src/linsaddle/<module>.py takes tests/test_<module>.py, when that
file exists, since the module's own tests are the likeliest to kill it
early.  That file runs first and then the rest of tests/; each such order
must collect as many tests as tests/ alone.  It ends with the mutant count
and the wall time.  Standard library only; run it from anywhere as

    python3 tools/mutation_sweep.py
"""

from __future__ import annotations

import ast
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "linsaddle"
TIMEOUT_S = 900

# (name, file under src/linsaddle, the test file that pins it, original text,
# mutated text)
MUTANTS = (
    ("chain_floor 100 H eps -> 1e4 H eps", "ranktol.py", "tests/test_thresholds.py",
     "return 100.0 * H * _EPS", "return 1e4 * H * _EPS"),
    ("support headroom 10 -> 100 gn/scale", "critical_points.py", "tests/test_thresholds.py",
     "10.0 * (gn / scale) * smax", "100.0 * (gn / scale) * smax"),
    ("canonical snap EPS_CANON -> 1e3 EPS_CANON", "critical_points.py",
     "tests/test_thresholds.py", "<= EPS_CANON * frob(Wh)", "<= 1e3 * EPS_CANON * frob(Wh)"),
    ("classify band 100 tau -> 1000 tau", "classifier.py", "tests/test_classifier.py",
     "if gn > 100.0 * tau:", "if gn > 1000.0 * tau:"),
    ("approximate rank tolerance 10 -> 1 gn/scale", "classifier.py",
     "tests/test_thresholds.py", "or 0.0, 10.0 * gn / scale)", "or 0.0, 1.0 * gn / scale)"),
    ("ambiguity band [0.25, 0.75] -> [0.35, 0.65]", "critical_points.py",
     "tests/test_thresholds.py",
     "(diag >= 0.25) & (diag <= 0.75)", "(diag >= 0.35) & (diag <= 0.65)"),
    ("witness c2 validation off", "classifier.py", "tests/test_classifier.py",
     "if not (c2 < thr):", "if False:"),
    ("global map rank vs |S| check off", "classifier.py", "tests/test_classifier.py",
     "if r != len(S):", "if False:"),
    ("pivot rank < r check off", "classifier.py", "tests/test_classifier.py",
     "if min(rank1, rank2) < r:", "if False:"),
    ("adjacent pivot's identity block always full rank", "classifier.py",
     "tests/test_classifier.py",
     "(d if tols[1].threshold((d, d), 1.0) < 1.0 else 0) if i == j + 1", "d if i == j + 1"),
    ("certificate range J1 starts at p + 1", "curvature.py", "tests/test_curvature.py",
     "J1 = range(p, H)", "J1 = range(p + 1, H)"),
    ("certificate range J2 starts at q + 2", "curvature.py", "tests/test_curvature.py",
     "J2 = range(q + 1, p)", "J2 = range(q + 2, p)"),
    ("certificate range J3 ends at q - 1", "curvature.py", "tests/test_curvature.py",
     "J3 = range(2, q + 1)", "J3 = range(2, q)"),
    ("p search starts at H - 1", "curvature.py", "tests/test_curvature.py",
     "for h in range(H, 2, -1) if z.zero(", "for h in range(H - 1, 2, -1) if z.zero("),
    ("Adam step without eps'", "experiments.py", "tests/test_experiments.py",
     "tmp += ADAM_EPS / (gscale * c)", "tmp += 0.0"),
    ("Adam step without the beta1 decay", "experiments.py", "tests/test_experiments.py",
     "m1 *= ADAM_BETA1", "m1 *= 1.0"),
    ("support record read for any bundle", "critical_points.py",
     "tests/test_support_record.py",
     "record is not None and record[0]() is bundle else None", "record is not None else None"),
    ("sanity: critical value adds the eigenvalues", "critical_points.py",
     "tests/test_critical_points.py", "sigma_yy_trace - sum(", "sigma_yy_trace + sum("),
)


def raise_mutants():
    """(name, file, test file, line, statement, bare call) for every raise in
    src/, the test file being the module's own, tests/test_<module>.py, or
    None when there is none."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        own = f"tests/test_{path.stem}.py"
        own = own if (ROOT / own).exists() else None
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Raise):
                call = ast.get_source_segment(text, node.exc) if node.exc else "pass"
                out.append((f"{path.name}:{node.lineno} raise off", path.name, own, node.lineno,
                            ast.get_source_segment(text, node), call))
    return sorted(out, key=lambda m: (m[1], m[3]))


def mutate(text: str, line, old: str, new: str) -> str | None:
    """text with old replaced by new: its one occurrence when line is None,
    else the one that starts on that (1-based) line; None if there is none."""
    if line is None:
        return text.replace(old, new) if text.count(old) == 1 else None
    lines = text.splitlines(keepends=True)
    start = sum(len(s) for s in lines[:line - 1])
    at = text.find(old, start, start + len(lines[line - 1]) + len(old))
    return None if at < 0 else text[:at] + new + text[at + len(old):]


def paths_for(tree: Path, first: str | None) -> list[str]:
    """The pytest arguments that run the test file ``first`` ahead of the
    other files of tests/, or tests/ alone when ``first`` is None."""
    if first is None:
        return ["tests"]
    files = sorted(p.relative_to(tree).as_posix() for p in (tree / "tests").glob("test_*.py"))
    # pytest merges a file and its directory into one walk in directory
    # order, so the other files are named one by one.
    return [first] + [f for f in files if f != first]


def collected(tree: Path, paths: list[str]) -> int:
    """The number of tests pytest collects from the paths in the tree."""
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider",
         *paths], cwd=tree, capture_output=True, text=True, timeout=TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    return int(lines[-1].split()[0]) if proc.returncode == 0 and lines else -1


def run_tests(tree: Path, paths: list[str]) -> tuple[bool, float, str]:
    """Whether the tests at the paths pass in the tree, the wall seconds and
    the last line."""
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *paths],
            cwd=tree, capture_output=True, text=True, timeout=TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return False, time.perf_counter() - t0, f"timed out after {TIMEOUT_S} s"
    lines = proc.stdout.strip().splitlines()
    return proc.returncode == 0, time.perf_counter() - t0, lines[-1] if lines else ""


def main() -> int:
    t_start = time.perf_counter()
    mutants = [(name, file, first, None, old, new) for name, file, first, old, new in MUTANTS]
    mutants += raise_mutants()
    with tempfile.TemporaryDirectory(prefix="mutation_sweep_") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench_traces",
            "*.egg-info"))
        passed, secs, last = run_tests(tree, ["tests"])
        print(f"unmutated: {'passed' if passed else 'FAILED'} in {secs:.0f} s ({last})", flush=True)
        if not passed:
            return 1
        total = collected(tree, ["tests"])
        for first in sorted({m[2] for m in mutants if m[2] is not None}):
            paths = paths_for(tree, first)
            if collected(tree, paths) != total:
                print(f"{' '.join(paths)} does not collect the {total} tests of tests/")
                return 1
        survivors = []
        for name, file, first, line, old, new in mutants:
            path = tree / "src" / "linsaddle" / file
            text = path.read_text()
            mutated = mutate(text, line, old, new)
            if mutated is None:
                print(f"{name}: {old!r} is not found once in {file}")
                return 1
            path.write_text(mutated)
            try:
                passed, secs, last = run_tests(tree, paths_for(tree, first))
            finally:
                path.write_text(text)
            print(f"{name}: {'SURVIVED' if passed else 'killed'} in {secs:.0f} s ({last})",
                  flush=True)
            if passed:
                survivors.append(name)
    print(f"{len(mutants) - len(survivors)} of {len(mutants)} mutants killed "
          f"({len(MUTANTS)} listed, {len(mutants) - len(MUTANTS)} raises) "
          f"in {time.perf_counter() - t_start:.0f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())

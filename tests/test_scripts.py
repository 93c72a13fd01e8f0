"""Smoke tests of the experiment scripts, each run as its own process."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run(script: str, *args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          env=env, capture_output=True, text=True, timeout=300)


def test_reproduce_equilibria_fast(tmp_path):
    """The end-to-end reproduction passes every verification it writes."""
    run = _run("reproduce_equilibria.py", "--fast", "--outdir", str(tmp_path))
    assert run.returncode == 0, run.stderr
    reports = sorted(tmp_path.glob("verify_*.json"))
    assert [p.name for p in reports] == [
        "verify_constant_price.json", "verify_dynamic_c0.0.json",
        "verify_dynamic_c0.5.json", "verify_dynamic_c1.0.json"]
    for path in reports:
        assert json.loads(path.read_text())["all_pass"], path.name
    assert (tmp_path / "params.json").exists()
    assert (tmp_path / "mc_constant_price.json").exists()


def test_deviation_study_rows(tmp_path):
    """One row per deviant; staying on the equilibrium threshold changes
    nothing on any path, so its gap is exactly zero."""
    out = tmp_path / "deviation.csv"
    run = _run("deviation_study.py", "--paths", "200", "--out", str(out))
    assert run.returncode == 0, run.stderr
    with out.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 6
    assert all(int(r["n"]) == 200 for r in rows)
    same = [r for r in rows if r["experiment"] == "constant_price" and r["level"] == "1.000"]
    assert len(same) == 1 and float(same[0]["diff_mean"]) == 0.0

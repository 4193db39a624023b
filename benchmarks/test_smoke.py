"""Smoke test of the benchmark itself, at a tiny N.

    python3 -m pytest -q benchmarks/test_smoke.py
"""

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import bench  # noqa: E402
from calibrate import Calibrator  # noqa: E402
from tracing import PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

N = 300


def run_cli(*args, cwd=None):
    return subprocess.run([sys.executable, str(HERE / "bench.py"), *args],
                          capture_output=True, text=True, timeout=300,
                          cwd=cwd)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_metric_printed_with_its_unit(name, trace):
    done = run_cli("--workload", name, "--seed", "7", "--seconds", "0",
                   "--n", str(N), "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], done.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    units = ({k: u for k, (u, _) in PER_LAYER.items()} if trace
             else bench.END_TO_END)
    assert {k: m["unit"] for k, m in result["metrics"].items()} == units
    for key, unit in units.items():
        assert any(line.startswith(f"{key} = ") and f" {unit} " in line
                   for line in lines), key
    assert any(line.startswith("error_rate = 0 ratio") for line in lines)


def test_corrupted_reference_fails_the_iteration():
    bench.import_program()
    good = bench.run_workload("separation-c1", 7, 0, False, n=N)
    assert good["failed"] == 0
    again = bench.run_workload("separation-c1", 7, 0, False, n=N,
                               reference=good["digest"])
    assert again["failed"] == 0
    corrupt = "0" + good["digest"][1:] if good["digest"][0] != "0" \
        else "1" + good["digest"][1:]
    bad = bench.run_workload("separation-c1", 7, 0, False, n=N,
                             reference=corrupt)
    # the warm-up iteration and the one timed iteration both fail
    assert bad["attempted"] == bad["failed"] == 2
    assert bad["error_rate"] == 1.0
    assert "reference" in bad["problems"][0]
    assert bench.result_line(bad)["correct"] is False


def test_calibrator_excludes_its_ticks_and_disarms_the_timer():
    handler = signal.getsignal(signal.SIGALRM)
    cal = Calibrator()
    _, wall, scale = cal.timed(time.sleep, 0.3)
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(cal.ticks) >= 4  # one before the call, about six during it
    # sleep resumes after each tick, so ticks came out of its 0.3 s
    assert 0.2 < wall < 0.3
    assert scale > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, str(tmp_path / HERE.name / "bench.py"),
         "--workload", "separation-c1", "--seconds", "1"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path)
    assert done.returncode != 0
    assert "metrics" not in done.stdout


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", f"{HERE.name}/bench.py"]
    assert spec["paths"] == [HERE.name]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == \
        [w.why for w in WORKLOADS.values()]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        bench.END_TO_END
    assert {m["name"]: (m["unit"], m["better"])
            for m in spec["per_layer"]} == PER_LAYER
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25

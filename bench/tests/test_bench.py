"""Tests of the benchmark itself: tiny runs, failing checks, seeded inputs.

    PYTHONPATH=src python3 -m pytest -q bench/tests
"""
from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import ehrtensor as et  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402


def _untraced(w, seed=1, count=2):
    inputs = [w.build(s) for s in w.specs(seed, count)]
    return worker.run_items(w, inputs, workloads.Caches())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_run_passes_checks_and_trace_matches(name):
    w = workloads.WORKLOADS[name]
    plain = _untraced(w)
    assert plain["failed"] == 0, plain["problems"]
    assert len(plain["latencies"]) == 2 and len(plain["loops"]) == 3
    traced = worker.trace_items(w, w.specs(1, 2), workloads.Caches(), Tracer())
    assert traced["failed"] == 0, traced["problems"]
    assert traced["digests"] == plain["digests"]
    assert 0.9 < traced["layers"]["trace.coverage"] <= 1.0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_fixes_the_inputs(name):
    w = workloads.WORKLOADS[name]
    assert w.specs(1, 6) == w.specs(1, 6)
    assert w.specs(1, 6) != w.specs(2, 6)
    assert w.specs(1, 6)[:3] == w.specs(1, 3)


def test_reference_items_match_recorded_digests():
    expected = json.loads(worker.REFERENCE.read_text())["items"]
    for name, w in workloads.WORKLOADS.items():
        assert worker.reference_digests(w, workloads.Caches(), len(expected[name])) \
            == expected[name], name


def test_corrupted_reference_digest_fails_the_run(tmp_path, monkeypatch, capsys):
    data = json.loads(worker.REFERENCE.read_text())
    data["items"]["pick-2d"][0] = "0" * 64
    corrupted = tmp_path / "reference.json"
    corrupted.write_text(json.dumps(data))
    monkeypatch.setattr(worker, "REFERENCE", corrupted)
    worker.main(["--mode", "run", "--workload", "pick-2d", "--seed", "1", "--items", "1"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["reference_ok"] is False
    line, problems = run.report([(0.1, result)], result, None, [])
    assert line["correct"] is False and problems


@pytest.mark.parametrize("name, target, wrong", [
    ("pick-2d", "h2_pick", lambda t: et.h1_pick(t)),
    ("halfopen-d4", "hr_halfopen", lambda s, r: et.HrVector(
        (et.SymTensor.zero(r, s.dim),) * (s.dim + r + 1))),
    ("scan-d4", "conjecture_scan", lambda *a, **k: workloads.positivity.ScanReport(
        "hibi", 4, 2, 2, 8, 0, 1, 0, (), ())),
])
def test_corrupted_output_fails_its_check(name, target, wrong, monkeypatch):
    monkeypatch.setattr(et, target, wrong)
    result = _untraced(workloads.WORKLOADS[name], count=1)
    assert result["failed"] == 1 and result["problems"]


def test_failing_verify_request_is_counted():
    w = dataclasses.replace(workloads.WORKLOADS["verify-corpus"],
                            run=lambda request: (1, '{"all_pass":false}'))
    assert _untraced(w, count=1)["failed"] == 1


def test_shipped_finding_is_required():
    rep = workloads.positivity.ScanReport(
        "hibi", 4, workloads.FINDING_TRIALS, 2, 8, workloads.FINDING_SEED,
        workloads.FINDING_TRIALS, 0, (), ())
    assert any("shipped finding" in p for p in workloads.scan_problems(rep))


def test_tail_keeps_ten_samples_above():
    assert run.tail([float(k) for k in range(100)]) == 89.0
    assert run.tail([float(k) for k in range(1000)]) == 989.0
    assert run.tail([3.0, 1.0, 2.0, 10.0]) == 2.5


def test_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "pick-2d",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""

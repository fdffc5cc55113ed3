"""Self-test of the benchmark, at tiny sizes.

    python3 -m pytest -q bench/test_bench.py

Each workload runs small stand-ins for its pool, with and without
tracing; every metric ``BENCHMARK.json`` names must come back with its
unit, an injected failing ``CheckReport`` must show up in ``failed``,
and a known closed-form failure must be counted without making the run
incorrect.
"""

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from z2z4 import BinPoly, QuatPoly, cyclic, verify  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = {
    w.name: w
    for w in (
        workloads.CrossCheck("sweep-small", (1, 2), (1, 3),
                             keep=lambda s: cyclic.cardinality(s) <= 1 << 6, rate=6,
                             key=lambda s: (cyclic.cardinality(s), s.beta, s.alpha)),
        # one code past the 4096-word exhaustive limit of the Gray identity check
        workloads.CrossCheck("verify-large", (3,), (5,),
                             keep=lambda s: cyclic.cardinality(s) == 1 << 13, rate=1),
        workloads.ClosedForms("closed-forms", (1, 2), (7,), rate=20),
        workloads.SweepParallel("sweep-parallel", 1, (1, 3), workers=2, rate=2),
    )
}


@pytest.fixture(autouse=True)
def quick_setup(monkeypatch):
    monkeypatch.setattr(run, "SETUP_MIN_S", 0.0)


def _run(w, tmp_path, trace=False, seed=1):
    result, record = run.run(w, seed, 1, trace, out_dir=tmp_path)
    json.dumps(result)
    json.dumps(record)
    return result, record


def test_tiny_stand_ins_cover_every_workload():
    names = [w["name"] for w in BENCH["workloads"]]
    assert names == list(workloads.WORKLOADS) == list(TINY)


@pytest.mark.parametrize("name", list(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_every_named_metric_with_its_unit(name, trace, tmp_path):
    result, record = _run(TINY[name], tmp_path, trace)
    wanted = BENCH["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert record["fail_rate"] == 0.0
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_parallel_trace_reaches_the_workers(tmp_path):
    result, record = _run(TINY["sweep-parallel"], tmp_path, trace=True)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert record["worker_files"] >= 1
    assert m["verify.cross_check.self_s"] > 0
    assert 0.0 <= m["verify.sweep.idle_frac"] < 1.0
    assert not list(tmp_path.glob("workers-*"))


def test_counts_repeat_exactly_for_a_seed(tmp_path):
    counts = []
    for _ in range(2):
        result, _ = _run(TINY["sweep-small"], tmp_path, trace=True, seed=7)
        counts.append({k: v["value"] for k, v in result["metrics"].items()
                       if v["unit"] in ("count", "words")})
    assert counts[0] == counts[1]
    assert counts[0]["code.words.enumerated"] > 0


def test_injected_failing_report_is_counted(tmp_path, monkeypatch):
    real = verify.cross_check
    calls = []

    def failing_once(spec, *args, **kwargs):
        report = real(spec, *args, **kwargs)
        calls.append(spec)
        if len(calls) == 1:
            report = dataclasses.replace(report, checks=report.checks + (("injected", False),))
        return report

    monkeypatch.setattr(verify, "cross_check", failing_once)
    result, record = _run(TINY["sweep-small"], tmp_path)
    assert result["failed"] == 1 and not result["correct"]
    assert record["fail_rate"] > 0
    assert record["failures"][0]["checks"] == ["injected"]


def _spec_from_label(label: str):
    fields = dict(re.findall(r"(\w+)=\(?([^()]*?)\)?(?= \w+=|$)", label))
    return cyclic.cyclic_spec(
        int(fields["alpha"]), int(fields["beta"]),
        BinPoly.parse(fields["b"]), BinPoly.parse(fields["ell"]),
        QuatPoly.parse(fields["f"]), QuatPoly.parse(fields["h"]), QuatPoly.parse(fields["g"]),
    )


def test_known_closed_form_failure_is_counted_and_named(tmp_path):
    (label, check), = list(sorted(workloads.known_failures("closed-forms")))[:1]
    spec = _spec_from_label(label)
    assert str(spec) == label
    w = workloads.ClosedForms("closed-forms", (3,), (21,), rate=1)
    w.pool = lambda: [spec]
    result, record = _run(w, tmp_path)
    assert result["failed"] == 1 and result["correct"]
    assert record["failures"] == [{"spec": label, "checks": [check], "known": True}]


def test_without_the_library_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    cmd = [sys.executable, *BENCH["command"][1:],
           "--workload", "sweep-small", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""

"""Smoke test of the end-to-end benchmark (not in ``testpaths``; run it as
``PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e_smoke.py -q``).

``--quick`` sizes, about a second per run: all six workloads, every oracle,
the untraced and the traced run, and the contract of BENCHMARK.json — every
name is emitted exactly once, with its unit.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.e2e import trace, unit
from benchmarks.e2e.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_is_well_formed():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for entry in SPEC["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
    for entry in SPEC["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
    for entry in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(entry["unit"])
        assert entry["better"] in ("lower", "higher")
    assert {e["name"]: e["unit"] for e in SPEC["end_to_end"]} == {
        name: unit for name, (unit, _) in unit.END_TO_END.items()}
    assert {e["name"]: e["unit"] for e in SPEC["per_layer"]} == unit.PER_LAYER
    setup = [e for e in SPEC["end_to_end"] if e["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(
        e["bound"] for e in SPEC["end_to_end"])


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("traced", [False, True])
def test_workload_runs_and_emits_every_metric_once(name, traced, tmp_path,
                                                   monkeypatch):
    monkeypatch.chdir(tmp_path)
    result = unit.run(name, 23, 1.0, traced, quick=True,
                      spans_out=str(tmp_path / "spans.json") if traced
                      else None)
    assert not [line for line in result["report"]
                if line.startswith("oracle:")], result["report"]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if traced else "end_to_end"]
    emitted = result["metrics"]
    assert list(emitted) == [entry["name"] for entry in declared]
    for entry in declared:
        value = emitted[entry["name"]]
        assert value["unit"] == entry["unit"]
        assert isinstance(value["value"], float)
    if traced:
        assert abs(emitted["ledger.sum_ratio"]["value"] - 1.0) <= 0.01
        assert emitted["trace.overhead_ratio"]["value"] > 0.0
        spans = json.loads((tmp_path / "spans.json").read_text())
        assert spans and {"id", "name", "start_ns", "end_ns", "parent",
                          "stimulus", "thread"} == set(spans[0])
        by_id = {span["id"]: span for span in spans}
        roots = [span for span in spans if span["name"] == "core.stimulus"]
        assert roots and all(span["parent"] == 0 for span in roots)
        assert all(span["parent"] in by_id for span in spans
                   if span["parent"])
    else:
        assert all(value["value"] > 0.0 for value in emitted.values())
    lines = unit.render(result)
    assert json.loads(lines[-1])["metrics"] == emitted
    assert not list(tmp_path.glob(unit.WORK_ROOT + "/*"))


def test_same_seed_same_inputs_and_exact_counts(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    first, second = (unit.run("saa_mem", 11, 0.5, True, quick=True)
                     for _ in range(2))
    for name in unit.COUNTS:
        assert (first["metrics"][name]["value"]
                == second["metrics"][name]["value"]), name


@pytest.mark.parametrize("name", ["saa_durable", "coupling_mix"])
def test_uninstall_leaves_the_engine_untouched(name, tmp_path):
    wl = WORKLOADS[name](11, tmp_path, quick=True)
    wl.setup()
    try:
        assert trace.is_untraced(wl.db, wl) == []
        pristine = _entry_points(wl)
        done = trace.install(wl.db, trace.SpanRecorder(), wl)
        assert trace.is_untraced(wl.db, wl)
        for item in wl.generate(5):
            wl.issue(item)
        wl.end_block()
        trace.uninstall(done)
        assert trace.is_untraced(wl.db, wl) == []
        assert _entry_points(wl) == pristine
        assert wl.verify() == []
    finally:
        wl.close()


def _entry_points(wl):
    """Every wrapped attribute, every captured sink and the listener list,
    as the objects they currently are."""
    db = wl.db
    found = [getattr(obj, method) for obj, method, _ in trace._targets(db, wl)]
    found += [getattr(holder, attr, None)
              for holder, attr in trace._captured(db)]
    found += list(db.object_manager._delta_listeners)
    found.append(vars(db.rule_manager).get("_spawn"))
    return found


def test_driver_command_line(tmp_path):
    command = [sys.executable if part == "python3" else part
               for part in SPEC["command"]]
    done = subprocess.run(
        command + ["--workload", "passive_mix", "--seed", "5", "--seconds",
                   "1", "--trace", "0", "--quick"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=120)
    assert done.returncode == 0
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True


def test_fails_without_the_engine(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark's own
    files there is no program to measure: non-zero exit, no result."""
    target = tmp_path / "benchmarks" / "e2e"
    target.mkdir(parents=True)
    for path in Path(__file__).resolve().parent.glob("*.py"):
        (target / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "saa_mem",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=120, env={"PATH": "/usr/bin:/bin"})
    assert done.returncode != 0
    assert "{" not in done.stdout

"""``BENCHMARK.json`` matches the workloads and the metrics the runner prints."""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import run
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_spec_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert SPEC["paths"] == ["perfbench"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer") for entry in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = next(metric for metric in SPEC["end_to_end"] if metric["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")


def test_workloads_match_the_runner():
    assert {entry["name"]: entry["why"] for entry in SPEC["workloads"]} == {
        name: workload.why for name, workload in WORKLOADS.items()
    }
    assert all(len(entry["why"]) <= 200 and "\n" not in entry["why"] for entry in SPEC["workloads"])


def _job(traced):
    spans = [{"job": "0.0", "id": 1, "parent": None, "name": "cli.main", "start": 0.0,
              "end": 1.0, "counts": {}}] if traced else []
    invocation = run.Invocation(["mine"], 0, 1.0, 0.3, 0.2, 1.2, 50.0, spans)
    return run.Job(traced, [invocation], ok=True, recall=1.0)


def test_printed_metric_names_match_the_spec():
    end_to_end = run.end_to_end([_job(False)], [0.3])
    assert set(end_to_end) == {metric["name"] for metric in SPEC["end_to_end"]}
    layers = run.per_layer([_job(False), _job(True)])
    assert set(layers) == {metric["name"] for metric in SPEC["per_layer"]}


def test_blocking_path_check_flags_time_outside_the_layer_spans():
    def traced(outside):
        spans = [
            {"job": "1.0", "id": 1, "parent": None, "name": "cli.main", "start": 0.0,
             "end": 1.0, "counts": {}},
            {"job": "1.0", "id": 2, "parent": 1, "name": "session.mine", "start": 0.0,
             "end": 1.0 - outside, "counts": {}},
        ]
        invocation = run.Invocation(["mine"], 0, 1.0, 0.3, 0.2, 1.2, 50.0, spans)
        return run.Job(True, [invocation], ok=True, recall=1.0)

    _, ok = run.blocking_path_check([_job(False), traced(0.02)])
    assert ok
    text, ok = run.blocking_path_check([_job(False), traced(0.5)])
    assert not ok and "FAILED" in text


def test_fails_without_the_program(tmp_path):
    """Given only BENCHMARK.json and the benchmark's files, it exits non-zero
    and prints no result."""
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    for path in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench").mkdir(exist_ok=True)
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dataport-append", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_job_invocations_write_the_checked_output(tmp_path, workload):
    argvs = WORKLOADS[workload].invocations(tmp_path / "data", tmp_path / "work")
    assert argvs and all(argv[0] == "mine" for argv in argvs)
    assert argvs[-1][argvs[-1].index("--output") + 1] == str(tmp_path / "work" / "out.json")

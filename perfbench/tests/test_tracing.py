"""The tracer patches the probed entry points, records nested spans, changes
no output, and puts every original back."""

import json
import sys

import pytest

import inputs
import repro.cli
import tracing

MINE = ["--window", "1440", "--support", "0.4", "--confidence", "0.4",
        "--epsilon", "1", "--min-overlap", "5", "--max-size", "3", "--top", "0"]


def _bindings():
    """Every attribute of every loaded ``repro`` module and probed class."""
    snapshot = {}
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("repro"):
            snapshot[module.__name__] = dict(vars(module))
    for module_name, attribute, _, _ in tracing.PROBES:
        if "." in attribute:
            owner = getattr(sys.modules[module_name], attribute.split(".")[0])
            snapshot[f"{module_name}:{owner.__name__}"] = dict(owner.__dict__)
    return snapshot


def _triples(path):
    payload = json.loads(path.read_text())
    return [(r["pattern"], r["support"], r["confidence"]) for r in payload["patterns"]]


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    directory = tmp_path_factory.mktemp("data")
    inputs.shuffled_csv(directory, "dataport", 0.3, 18, seed=2)
    return directory / "data.csv"


def test_install_patches_and_restore_puts_originals_back():
    before = _bindings()
    original_read = repro.cli.read_time_series_csv
    tracer = tracing.Tracer("t")
    tracer.install()
    try:
        assert repro.cli.read_time_series_csv is not original_read
        assert repro.cli.read_time_series_csv.__wrapped__ is original_read
    finally:
        tracer.restore()
    after = _bindings()
    assert after.keys() == before.keys()
    for name in before:
        assert after[name].keys() == before[name].keys(), name
        for key, value in before[name].items():
            assert after[name][key] is value, (name, key)


@pytest.mark.parametrize("extra", [[], ["--parallel", "--workers", "2", "--shared-memory"]])
def test_traced_output_equals_untraced(tmp_path, data, extra):
    argv = ["mine", "--input", str(data), *MINE, *extra]
    assert repro.cli.main([*argv, "--output", str(tmp_path / "plain.json")]) == 0
    tracer = tracing.Tracer("t")
    tracer.install()
    try:
        rc = tracer.call("cli.main", repro.cli.main,
                         [*argv, "--output", str(tmp_path / "traced.json")])
    finally:
        tracer.restore()
    assert rc == 0
    assert _triples(tmp_path / "traced.json") == _triples(tmp_path / "plain.json")

    spans = tracer.spans
    names = {span["name"] for span in spans}
    assert {"cli.main", "csv_io.read", "timeseries.split", "session.mine",
            "engine.run", "patterns_io.write"} <= names
    by_id = {span["id"]: span for span in spans}
    roots = [span for span in spans if span["parent"] is None]
    assert [root["name"] for root in roots] == ["cli.main"]
    for span in spans:
        assert span["job"] == "t"
        if span["parent"] is not None:
            parent = by_id[span["parent"]]
            assert parent["start"] <= span["start"] <= span["end"] <= parent["end"]
    own = tracing.self_times(spans)
    root = roots[0]
    assert sum(own.values()) == pytest.approx(root["end"] - root["start"], abs=1e-9)
    assert all(value >= -1e-9 for value in own.values())


def _span(job, span_id, parent, name, start, end, **counts):
    return {"job": job, "id": span_id, "parent": parent, "name": name,
            "start": start, "end": end, "counts": counts}


def _run(job, span_id, parent, start, end, level, candidates, shard_max_s):
    return _span(job, span_id, parent, "engine.run", start, end, level=level,
                 candidates=candidates, shard_max_s=shard_max_s, relation_checks=10,
                 patterns=candidates // 2, retries=0, splits=1, warnings=0)


def test_layer_metrics_from_spans():
    spans = [
        _span("0.0", 1, None, "cli.main", 0.0, 10.0),
        _span("0.0", 2, 1, "session.mine", 1.0, 9.0),
        _run("0.0", 3, 2, 1.5, 3.5, level=2, candidates=20, shard_max_s=2.0),
        _run("0.0", 4, 2, 4.0, 8.0, level=3, candidates=80, shard_max_s=3.0),
        _span("0.1", 1, None, "cli.main", 20.0, 25.0),
        _span("0.1", 2, 1, "session.append", 21.0, 24.0),
        _run("0.1", 3, 2, 21.0, 23.0, level=3, candidates=50, shard_max_s=2.0),
    ]
    metrics = tracing.layer_metrics(spans)
    assert tracing.append_candidates(spans) == 50
    assert metrics["session.mine_s"] == 8.0
    assert metrics["session.append_s"] == 3.0
    assert metrics["session.self_s"] == pytest.approx(8.0 + 3.0 - 2.0 - 4.0 - 2.0)
    assert metrics["engine.l2.run_s"] == 2.0
    assert metrics["engine.l2.candidates"] == 20
    assert metrics["engine.lk.run_s"] == 6.0
    assert metrics["engine.lk.candidates"] == 130
    assert metrics["engine.lk.shard_max_s"] == 5.0
    assert metrics["engine.lk.wait_s"] == 1.0
    assert metrics["engine.patterns_per_candidate"] == pytest.approx(75 / 150)
    assert metrics["engine.shard_splits"] == 3
    assert metrics["relation_kernel.calls"] == 0.0

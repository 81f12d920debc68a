"""Pinned references: digests, subset hashes, and the inputs they belong to."""

import json

import pytest

import references
import run
from workloads import WORKLOADS

TRIPLES = [("A>B", 0.5, 0.75), ("A", 1.0, 1.0), ("B", 2 / 3, 1.0)]


def test_digest_ignores_order_and_the_last_bits_of_a_measure():
    assert references.digest(TRIPLES) == references.digest(TRIPLES[::-1])
    nudged = [("B", 2 / 3 + 1e-15, 1.0), *TRIPLES[:2]]
    assert references.digest(nudged) == references.digest(TRIPLES)
    changed = [("A>B", 0.5, 0.7), *TRIPLES[1:]]
    assert references.digest(changed) != references.digest(TRIPLES)
    assert references.digest(TRIPLES[:2]) != references.digest(TRIPLES)


def test_members_round_trip():
    members = references.decode_members(references.encode_members(TRIPLES))
    assert members == {references.member(triple) for triple in TRIPLES}
    assert references.member(("A>B", 0.5, 0.7)) not in members


def test_every_workload_has_a_pinned_reference():
    pinned = references.load()
    assert set(pinned["workloads"]) == set(WORKLOADS)
    for name, workload in WORKLOADS.items():
        record = pinned["workloads"][name]
        assert record["patterns"] > 0 and record["candidates"] > 0
        assert ("members" in record) == workload.approximate


def test_prepare_refuses_inputs_from_another_house(tmp_path, monkeypatch):
    workload = WORKLOADS["dataport-append"]
    pinned = json.loads(references.PINNED.read_text())
    monkeypatch.setattr(references, "load", lambda: pinned)
    monkeypatch.setattr(run, "CACHE", tmp_path)
    prepared = run.prepare(workload, 4)
    assert prepared.reference == pinned["workloads"]["dataport-append"]
    pinned["workloads"]["dataport-append"]["house_sha256"] = "0" * 64
    with pytest.raises(RuntimeError, match="another house"):
        run.prepare(workload, 4)

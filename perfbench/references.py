"""Pinned reference results that every job's output is checked against.

Usage (from the repository root), to pin the references anew::

    python3 perfbench/references.py

Every seed of a workload mines the same house with its days and series in
another order (:mod:`inputs`), which changes neither the patterns nor their
measures.  So each workload has one pinned record in ``references.json``,
computed once by a from-scratch E-HTPGM mine of seed 0's inputs on the
process engine:

* ``house_sha256`` — digest of the house the inputs are drawn from, so the
  program is always measured on the data the reference was mined from;
* ``patterns`` and ``digest`` — the number of mined patterns and a digest of
  their sorted (pattern, support, confidence) triples;
* ``members`` — for the A-HTPGM workload only: a 4-byte hash of each
  triple, so a job's output can be checked to be a subset of the reference
  with identical measures;
* ``candidates`` — the candidates the full mine evaluates, the base of
  ``session.append_touched_frac``.

Measures are rounded to 9 decimals before hashing, so a change in the last
bit of a float does not count as a different result; the output order is not
part of the result.
"""

from __future__ import annotations

import base64
import hashlib
import json
import sys
from pathlib import Path

PINNED = Path(__file__).resolve().with_name("references.json")
MEMBER_BYTES = 4


def _canonical(triple) -> bytes:
    pattern, support, confidence = triple
    return json.dumps(
        [pattern, round(support, 9), round(confidence, 9)], separators=(",", ":")
    ).encode()


def digest(triples) -> str:
    """Digest of a pattern set: its sorted canonical triples."""
    return hashlib.sha256(b"\n".join(sorted(map(_canonical, triples)))).hexdigest()


def member(triple) -> bytes:
    """Short hash of one triple, for subset checks."""
    return hashlib.sha256(_canonical(triple)).digest()[:MEMBER_BYTES]


def encode_members(triples) -> str:
    return base64.b64encode(b"".join(sorted({member(triple) for triple in triples}))).decode()


def decode_members(text: str) -> set[bytes]:
    raw = base64.b64decode(text)
    return {raw[i : i + MEMBER_BYTES] for i in range(0, len(raw), MEMBER_BYTES)}


def house_digest(records: dict[str, dict]) -> str:
    """The digest of the house every input file of ``records`` is drawn from."""
    (house,) = {record["house_sha256"] for record in records.values()}
    return house


def load() -> dict:
    return json.loads(PINNED.read_text())


def pin() -> dict:
    """Mine the reference of every workload from scratch."""
    import run
    from workloads import WORKLOADS

    pinned = {**run.source_record(), "workloads": {}}
    for name, workload in WORKLOADS.items():
        data, records = run.workload_inputs(workload, 0)
        triples, candidates = run.mine_reference(workload, data)
        record = {
            "house_sha256": house_digest(records),
            "patterns": len(triples),
            "digest": digest(triples),
            "candidates": candidates,
        }
        if workload.approximate:
            record["members"] = encode_members(triples)
        pinned["workloads"][name] = record
        print(f"{name}: {len(triples)} patterns, {candidates} candidates", flush=True)
    return pinned


if __name__ == "__main__":
    sys.path.insert(0, str(PINNED.parents[1] / "src"))
    PINNED.write_text(json.dumps(pin(), indent=1, sort_keys=True) + "\n")

"""The benchmark workloads: seeded inputs, the CLI invocations of one job, and
the reference each job's output is checked against.

Sizes are scaled so that one job takes a few seconds on a 2-CPU host, so a
timed run holds ten jobs or more.  The references are mined from scratch
on the process engine, a different execution path from the serial jobs, and
pinned in ``references.json`` (:mod:`references`).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import inputs

#: Mining flags shared by every workload.
MINE = [
    "--window", "1440", "--support", "0.4", "--confidence", "0.4",
    "--epsilon", "1", "--min-overlap", "5", "--max-size", "3",
]
PARALLEL = ["--parallel", "--workers", "2"]


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``invocations(inputs_dir, work_dir)`` lists the ``repro`` argv of each
    process of one job, run in order; the job's result is the ``--output`` of
    the last one, ``work_dir/out.json``.  ``reference(inputs_dir, out)`` is
    the argv of the from-scratch E-HTPGM mine whose pinned result the job's
    result is checked against: the same pattern set, or with ``approximate``
    a subset with identical measures (A-HTPGM).
    """

    name: str
    why: str
    make_inputs: Callable[[Path, int], dict[str, dict]]
    invocations: Callable[[Path, Path], list[list[str]]]
    reference: Callable[[Path, Path], list[str]]
    approximate: bool = False


def _reference(csv: str):
    def reference(data: Path, out: Path) -> list[str]:
        return ["mine", "--input", str(data / csv), "--output", str(out), "--top", "0",
                *MINE, *PARALLEL]

    return reference


def _approximate_job(data: Path, work: Path) -> list[list[str]]:
    return [["mine", "--input", str(data / "data.csv"), "--output", str(work / "out.json"),
             "--top", "0", *MINE, "--approximate", "--density", "0.05", *PARALLEL,
             "--shared-memory"]]


def _append_job(data: Path, work: Path) -> list[list[str]]:
    session, out = str(work / "session.pkl"), str(work / "out.json")
    first = ["mine", "--input", str(data / "base.csv"), "--session", session,
             "--output", out, "--top", "0", *MINE]
    appends = [
        ["mine", "--append", str(data / f"{delta}.csv"), "--session", session,
         "--output", out, "--top", "0", "--window", "1440"]
        for delta in ("delta1", "delta2")
    ]
    return [first, *appends]


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "nist-approx-parallel",
            "A-HTPGM on 2 workers with shared-memory transport: CSV ingest, NMI, "
            "the process pool and map_shards; accuracy against E-HTPGM.",
            lambda directory, seed: inputs.shuffled_csv(directory, "nist", 0.5, 90, seed),
            _approximate_job,
            _reference("data.csv"),
            approximate=True,
        ),
        Workload(
            "dataport-append",
            "Serial E-HTPGM session on 80% of the days, then two appends of 10%: "
            "level-k scalar evaluation, incremental append and session I/O.",
            lambda directory, seed: inputs.day_split_csvs(directory, "dataport", 0.4, 60, seed),
            _append_job,
            _reference("full.csv"),
        ),
    )
}

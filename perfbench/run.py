"""Benchmark of ``repro mine``: seeded workloads run through the real CLI.

Usage (from the repository root)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--workload all`` runs every workload in turn.

One client runs jobs back to back (a closed loop) for about S seconds.
Every job is one or more ``repro.cli.main(argv)`` invocations, each in a
fresh interpreter (:mod:`job`), measured from outside: wall-clock inside
``cli.main``, CPU time and peak resident memory of the whole process tree,
and interpreter start-up until ``repro.cli`` is imported.  Every job's
output is checked against the reference pinned for its inputs
(:mod:`references`).  ``--trace 1`` alternates untraced and traced jobs and
reports the per-layer metrics of :mod:`tracing` instead of the end-to-end
ones.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print every
metric by name and unit and a record of the host, the source and the
inputs.  Metric names and units come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import inputs
import references
import tracing
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
JOB = Path(__file__).resolve().with_name("job.py")
CACHE = ROOT / ".perfbench_cache"
#: Cap on one invocation; a hung job is killed and counted as failed.
INVOCATION_TIMEOUT_S = 120.0
#: Set-up probes per run, on top of one sample per job invocation.
SETUP_PROBES = 3
#: Largest share of untraced job_s a traced job may spend outside every
#: layer span before the traced run reports itself incorrect.
OUTSIDE_MAX = 0.10
#: How often the process tree is re-scanned for new worker processes.
TREE_SCAN_S = 0.5
POLL_S = 0.01


@dataclass
class Invocation:
    """What one ``job.py`` process did, as seen from outside and inside."""

    argv: list[str]
    rc: int
    main_s: float
    setup_s: float
    import_s: float
    cpu_s: float
    peak_rss_mb: float
    spans: list[dict] = field(default_factory=list)


@dataclass
class Job:
    """One job of a workload: its invocations and the output check."""

    traced: bool
    invocations: list[Invocation]
    ok: bool
    recall: float
    #: The mined pattern triples.
    output: tuple = ()
    session_mb: float = 0.0
    kept_series_frac: float = 0.0
    #: Per append: candidates re-evaluated over a full mine's (traced jobs).
    append_fracs: list[float] = field(default_factory=list)

    @property
    def job_s(self) -> float:
        return sum(invocation.main_s for invocation in self.invocations)


# --------------------------------------------------------------------------- processes
def _children() -> dict[int, list[int]]:
    """Parent pid -> child pids, from ``/proc``."""
    tree: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue
        ppid = int(stat[stat.rfind(")") + 2 :].split()[1])
        tree.setdefault(ppid, []).append(int(entry))
    return tree


def _descendants(pid: int) -> list[int]:
    tree, found, stack = _children(), [], [pid]
    while stack:
        current = stack.pop()
        found.append(current)
        stack.extend(tree.get(current, ()))
    return found


def _rss_bytes(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/statm") as handle:
            return int(handle.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
    except (OSError, IndexError, ValueError):
        return 0


def _environment() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_process(command: list[str], stderr_path: Path) -> tuple[int, float, float, float]:
    """Run ``command`` to completion; return (exit code, spawn time on the
    monotonic clock, CPU seconds of its process tree, peak tree RSS in MB).

    CPU time comes from ``wait4`` (the process plus every descendant it
    reaped).  Peak memory is the larger of the sampled sum over the live
    process tree and the kernel's own peak for the largest single process.
    """
    with open(stderr_path, "w") as stderr:
        spawned = time.monotonic()
        process = subprocess.Popen(
            command, cwd=ROOT, env=_environment(), stdout=subprocess.DEVNULL,
            stderr=stderr, start_new_session=True,
        )
    pid, peak, tree, scanned = process.pid, 0, [process.pid], spawned
    deadline = spawned + INVOCATION_TIMEOUT_S
    try:
        while True:
            done, status, usage = os.wait4(pid, os.WNOHANG)
            if done:
                break
            now = time.monotonic()
            if now - scanned >= TREE_SCAN_S:
                tree, scanned = _descendants(pid), now
            peak = max(peak, sum(_rss_bytes(member) for member in tree))
            if now > deadline:
                os.killpg(pid, signal.SIGKILL)
                done, status, usage = os.wait4(pid, 0)
                break
            time.sleep(POLL_S)
    except BaseException:
        os.killpg(pid, signal.SIGKILL)
        os.wait4(pid, 0)
        process.returncode = -signal.SIGKILL
        raise
    process.returncode = os.waitstatus_to_exitcode(status)
    peak = max(peak, usage.ru_maxrss * 1024)
    return process.returncode, spawned, usage.ru_utime + usage.ru_stime, peak / 1e6


def invoke(argv: list[str], work: Path, job_id: str, trace: bool) -> Invocation:
    """Run one ``repro`` invocation in a fresh ``job.py`` process."""
    record_path = work / f"record-{job_id}.json"
    command = [sys.executable, str(JOB), str(record_path), job_id, "1" if trace else "0", "--", *argv]
    rc, spawned, cpu_s, peak_mb = run_process(command, work / f"stderr-{job_id}.txt")
    try:
        record = json.loads(record_path.read_text())
    except (OSError, ValueError):
        record = {}
    if "rc" not in record or "imported" not in record:
        return Invocation(argv, rc or 1, 0.0, 0.0, 0.0, cpu_s, peak_mb)
    return Invocation(
        argv,
        rc,
        record["main_s"],
        record["imported"] - spawned,
        record["import_s"],
        cpu_s,
        peak_mb,
        record["spans"],
    )


def setup_probe(work: Path) -> float:
    """Interpreter start until ``repro.cli`` is imported, in seconds."""
    record_path = work / "probe.json"
    rc, spawned, _, _ = run_process([sys.executable, str(JOB), str(record_path)], work / "probe.txt")
    if rc != 0:
        raise RuntimeError(f"set-up probe failed: {(work / 'probe.txt').read_text()[-2000:]}")
    return json.loads(record_path.read_text())["imported"] - spawned


# --------------------------------------------------------------------------- outputs
def read_triples(path: Path) -> tuple[list[tuple], dict]:
    """(pattern, support, confidence) per mined pattern, in output order."""
    payload = json.loads(path.read_text())
    triples = [
        (record["pattern"], record["support"], record["confidence"])
        for record in payload["patterns"]
    ]
    return triples, payload


@dataclass
class Inputs:
    """The generated inputs of one seed, with the pinned reference."""

    data: Path
    records: dict[str, dict]
    reference: dict

    @property
    def n_series(self) -> int:
        return max(record["series"] for record in self.records.values())


def workload_inputs(workload, seed: int) -> tuple[Path, dict[str, dict]]:
    """Generate (or reuse) the inputs of ``seed``.

    The cache is keyed by the files that define the inputs, so editing a
    workload never reuses stale inputs.
    """
    definition = hashlib.sha256()
    for name in ("inputs.py", "workloads.py"):
        definition.update(JOB.with_name(name).read_bytes())
    data = CACHE / f"{workload.name}-{definition.hexdigest()[:12]}" / str(seed)
    return data, inputs.cached(data, lambda directory: workload.make_inputs(directory, seed))


def mine_reference(workload, data: Path) -> tuple[list[tuple], int]:
    """The from-scratch E-HTPGM result on the process engine, and the number
    of candidates it evaluates (traced)."""
    work = fresh_dir(CACHE / "work")
    out = work / "reference.json"
    invocation = invoke(workload.reference(data, out), work, "reference", trace=True)
    if invocation.rc != 0:
        raise RuntimeError(
            f"reference mine failed: {(work / 'stderr-reference.txt').read_text()[-2000:]}"
        )
    triples, _ = read_triples(out)
    candidates = sum(
        span["counts"]["candidates"] for span in invocation.spans if span["name"] == "engine.run"
    )
    return triples, candidates


def prepare(workload, seed: int) -> Inputs:
    """The seed's inputs with the pinned reference.

    Inputs drawn from another house than the reference was mined from are an
    error.
    """
    reference = references.load()["workloads"].get(workload.name)
    if reference is None:
        raise RuntimeError(f"no pinned reference for {workload.name}; run references.py")
    data, records = workload_inputs(workload, seed)
    if references.house_digest(records) != reference["house_sha256"]:
        raise RuntimeError(
            f"{workload.name}: the generated inputs are drawn from another house than "
            "the pinned reference was mined from"
        )
    if "members" in reference:
        reference = {**reference, "members": references.decode_members(reference["members"])}
    return Inputs(data, records, reference)


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def run_job(workload, prepared: Inputs, index: int, trace: bool) -> Job:
    """Run one job and check its output against the reference."""
    work = fresh_dir(CACHE / "work")
    job = Job(trace, [], ok=True, recall=0.0)
    for step, argv in enumerate(workload.invocations(prepared.data, work)):
        invocation = invoke(argv, work, f"{index}.{step}", trace)
        job.invocations.append(invocation)
        if invocation.rc != 0:
            sys.stderr.write((work / f"stderr-{index}.{step}.txt").read_text()[-2000:])
            job.ok = False
            return job
        if trace and "--append" in argv:
            job.append_fracs.append(
                tracing.append_candidates(invocation.spans) / prepared.reference["candidates"]
            )
    try:
        triples, payload = read_triples(work / "out.json")
    except (OSError, ValueError, KeyError):
        job.ok = False
        return job
    reference = prepared.reference
    if workload.approximate:
        members = [references.member(triple) for triple in triples]
        matched = sum(1 for key in members if key in reference["members"])
        job.ok &= matched == len(triples) == len(set(triples))
    else:
        matched = len(triples) if references.digest(triples) == reference["digest"] else 0
        job.ok &= matched == len(triples) == reference["patterns"]
    job.recall = matched / reference["patterns"]
    job.output = tuple(triples)
    session = work / "session.pkl"
    if session.exists():
        job.session_mb = session.stat().st_size / 1e6
    correlated = payload.get("correlated_series")
    if correlated:
        job.kept_series_frac = len(correlated) / prepared.n_series
    return job


# --------------------------------------------------------------------------- metrics
def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def end_to_end(jobs: list[Job], setup_samples: list[float]) -> dict[str, float]:
    """The user-visible metrics: medians over the run's jobs."""
    return {
        "job_s": _median(job.job_s for job in jobs),
        "cpu_s": _median(sum(i.cpu_s for i in job.invocations) for job in jobs),
        "peak_rss_mb": _median(max(i.peak_rss_mb for i in job.invocations) for job in jobs),
        "setup_s": _median(setup_samples),
        "pattern_recall": _median(job.recall for job in jobs),
    }


def per_layer(jobs: list[Job]) -> dict[str, float]:
    """The per-layer metrics: medians over traced jobs of :func:`tracing.layer_metrics`,
    plus the figures measured around the invocations themselves."""
    traced = [job for job in jobs if job.traced]
    untraced = [job for job in jobs if not job.traced]
    per_job = [
        tracing.layer_metrics([span for i in job.invocations for span in i.spans])
        for job in traced
    ] or [tracing.layer_metrics([])]
    metrics = {name: _median(values[name] for values in per_job) for name in per_job[0]}
    appends = [
        invocation.main_s
        for job in untraced
        for invocation in job.invocations
        if "--append" in invocation.argv
    ]
    metrics.update({
        "cli.import_s": _median(i.import_s for job in jobs for i in job.invocations),
        "cli.append_s": _median(appends),
        "correlation.kept_series_frac": _median(job.kept_series_frac for job in traced),
        "session.append_touched_frac": _median(_median(job.append_fracs) for job in traced),
        "session_io.session_mb": _median(job.session_mb for job in traced),
        "trace.overhead_s": _median(job.job_s for job in traced)
        - _median(job.job_s for job in untraced),
    })
    return metrics


def blocking_path_check(jobs: list[Job]) -> tuple[str, bool]:
    """Whether the layer spans cover the blocking path of a job.

    Spans nest on the coordinator's one thread, so the self times of a traced
    job's spans add up to its wall-clock by construction; what the probes
    miss is the self time of the ``cli.main`` roots, the time outside every
    layer span.  The check passes when that time is at most
    :data:`OUTSIDE_MAX` of the untraced ``job_s``.
    """
    outside = []
    for job in jobs:
        if job.traced:
            spans = [span for i in job.invocations for span in i.spans]
            own = tracing.self_times(spans)
            outside.append(sum(
                own[(span["job"], span["id"])] for span in spans if span["parent"] is None
            ))
    untraced = _median(job.job_s for job in jobs if not job.traced)
    share = _median(outside) / untraced if untraced else 1.0
    ok = share <= OUTSIDE_MAX
    return (
        f"blocking path: {_median(outside):.4f} s per traced job outside any layer span, "
        f"{share:.2%} of untraced job_s {untraced:.4f} s (at most {OUTSIDE_MAX:.0%}: "
        f"{'ok' if ok else 'FAILED'})",
        ok,
    )


# --------------------------------------------------------------------------- record
def source_record() -> dict[str, str | None]:
    """The commit (when run from a git work tree) and a digest of ``src/``."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {"commit": commit, "source_sha256": digest.hexdigest()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn a termination request into SystemExit, so run_process kills the
    # running job's process group on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (SRC / "repro" / "cli.py").is_file():
        print(f"error: no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))

    if args.workload == "all":
        for name in WORKLOADS:
            print(f"== {name}", flush=True)
            main(["--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds),
                  "--trace", str(args.trace)])
        return 0
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    import numpy

    workload = WORKLOADS[args.workload]
    prepared = prepare(workload, args.seed % 2**32)

    work = fresh_dir(CACHE / "work")
    setup_samples = [setup_probe(work) for _ in range(SETUP_PROBES)]
    jobs: list[Job] = []
    # Jobs run back to back while the next one is expected to end within
    # the run's seconds (at least one job).
    started = time.monotonic()
    walls: list[float] = []
    while not jobs or time.monotonic() - started + _median(walls) <= args.seconds:
        traced = bool(args.trace) and len(jobs) % 2 == 1
        began = time.monotonic()
        jobs.append(run_job(workload, prepared, len(jobs), traced))
        walls.append(time.monotonic() - began)
    if args.trace and len(jobs) < 2:
        jobs.append(run_job(workload, prepared, len(jobs), True))
    # A-HTPGM is deterministic too: every job must return the same patterns.
    consistent = len({job.output for job in jobs if job.ok}) <= 1
    setup_samples += [i.setup_s for job in jobs for i in job.invocations if i.rc == 0]
    shutil.rmtree(CACHE / "work", ignore_errors=True)

    failed = sum(1 for job in jobs if not job.ok)
    if args.trace:
        values = per_layer([job for job in jobs if job.ok] or jobs)
        declared = spec["per_layer"]
    else:
        values = end_to_end([job for job in jobs if job.ok] or jobs, setup_samples)
        declared = spec["end_to_end"]
    if set(values) != {metric["name"] for metric in declared}:
        raise RuntimeError(
            f"metrics {sorted(values)} do not match BENCHMARK.json {[m['name'] for m in declared]}"
        )

    print("record: " + json.dumps({
        "workload": workload.name,
        "seed": args.seed,
        **source_record(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "inputs": prepared.records,
        "reference_patterns": prepared.reference["patterns"],
        "jobs": len(jobs),
        "traced_jobs": sum(1 for job in jobs if job.traced),
        "load": "closed loop, one client, jobs back to back",
    }, sort_keys=True))
    job_times = sorted(job.job_s for job in jobs)
    print(f"jobs: {len(jobs)} attempted, {failed} failed, failed_frac {failed / len(jobs):.4f}; "
          f"job_s n={len(job_times)} min {job_times[0]:.4f} max {job_times[-1]:.4f} s")
    covered = True
    if args.trace:
        text, covered = blocking_path_check([job for job in jobs if job.ok] or jobs)
        print(text)
    metrics = {}
    for metric in declared:
        value = values[metric["name"]]
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"{metric['name']}: {value:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": failed == 0 and consistent and covered,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

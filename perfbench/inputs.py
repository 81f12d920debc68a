"""Seeded benchmark inputs: the wide CSV files the miner is given.

The benchmark takes the seed; the program only ever sees the files written
here.  Every workload mines the days of one fixed simulated house
(``make_dataset`` with generator seed 0); the seed draws the order of its
days and of its series.  Mining is defined per day and per series pair, so
every seed asks for the same patterns and, but for which days an appended
delta holds, the same work: inputs drawn afresh per seed moved mining cost
by 10-20% between seeds, close to a regression bound on their own.

* :func:`shuffled_csv` — the house as one file;
* :func:`day_split_csvs` — the house cut by whole days into a base part and
  appended deltas, plus the uncut file.

Every file gets a size record (series, samples, sequences, bytes) and the
digest of the house it was drawn from, and :func:`cached` keeps one
directory per workload and seed, so a repeated seed skips generation.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from collections.abc import Callable
from pathlib import Path

import numpy as np

#: One simulated day in minutes: every workload mines one sequence per day.
DAY = 1440.0
#: Shares of the days in the base part and each delta of :func:`day_split_csvs`.
SPLIT = (0.8, 0.1, 0.1)


def house(dataset: str, attributes: float, days: int):
    """``days`` days of the fixed house of ``dataset``, and their sha256."""
    from repro.datasets import make_dataset
    from repro.datasets.appliances import ENERGY_PROFILES

    fixed = make_dataset(
        dataset, scale=days / ENERGY_PROFILES[dataset]["n_sequences"],
        attribute_fraction=attributes, seed=0,
    ).series_set
    digest = hashlib.sha256()
    for series in fixed:
        digest.update(series.name.encode())
        digest.update(np.ascontiguousarray(series.timestamps, dtype=float).tobytes())
        digest.update(np.ascontiguousarray(series.values, dtype=float).tobytes())
    return fixed, digest.hexdigest()


def shuffle(fixed, seed: int):
    """``fixed`` with its days and its series in a seed-drawn order.

    Day ``k`` of the result is a whole day of ``fixed``, its samples moved to
    start at ``k * DAY``.
    """
    from repro.timeseries.series import TimeSeries, TimeSeriesSet

    rng = np.random.default_rng(seed)
    timestamps = fixed.series[0].timestamps
    day = np.floor(timestamps / DAY).astype(int)
    order = rng.permutation(int(day.max()) + 1)
    rows = np.concatenate([np.flatnonzero(day == d) for d in order])
    moved = np.repeat(np.arange(len(order)), np.bincount(day)[order]) * DAY + timestamps[rows] % DAY
    return TimeSeriesSet([
        TimeSeries(fixed.series[i].name, moved.copy(), fixed.series[i].values[rows])
        for i in rng.permutation(len(fixed.series))
    ])


def _rows(series_set, mask):
    """The samples of ``series_set`` that ``mask`` selects."""
    from repro.timeseries.series import TimeSeries, TimeSeriesSet

    return TimeSeriesSet([
        TimeSeries(series.name, series.timestamps[mask], series.values[mask])
        for series in series_set
    ])


def _write(series_set, path: Path, house_sha256: str) -> dict:
    """Write ``series_set`` as a wide CSV and return its size record."""
    from repro.io import write_time_series_csv

    write_time_series_csv(series_set, path)
    timestamps = series_set.series[0].timestamps
    return {
        "file": path.name,
        "series": len(series_set),
        "samples": int(len(timestamps)),
        "sequences": int(len(np.unique(np.floor(timestamps / DAY)))),
        "bytes": path.stat().st_size,
        "house_sha256": house_sha256,
    }


def shuffled_csv(
    directory: Path, dataset: str, attributes: float, days: int, seed: int
) -> dict[str, dict]:
    """The seed's shuffle of the house as ``data.csv``."""
    fixed, digest = house(dataset, attributes, days)
    return {"data": _write(shuffle(fixed, seed), directory / "data.csv", digest)}


def day_split_csvs(
    directory: Path, dataset: str, attributes: float, days: int, seed: int
) -> dict[str, dict]:
    """The seed's shuffle of the house cut by whole days into ``base``,
    ``delta1``, ... in the proportions of :data:`SPLIT`.

    ``full`` is the uncut shuffle; the parts partition its days in order.
    """
    fixed, digest = house(dataset, attributes, days)
    full = shuffle(fixed, seed)
    timestamps = full.series[0].timestamps
    day = np.floor(timestamps / DAY)
    bounds = np.round(np.cumsum((0.0, *SPLIT)) * (int(day.max()) + 1)).astype(int)
    records = {"full": _write(full, directory / "full.csv", digest)}
    for part, (low, high) in enumerate(zip(bounds[:-1], bounds[1:])):
        mask = (day >= low) & (day < high)
        name = "base" if part == 0 else f"delta{part}"
        records[name] = _write(_rows(full, mask), directory / f"{name}.csv", digest)
    return records


def cached(directory: Path, build: Callable[[Path], dict[str, dict]]) -> dict[str, dict]:
    """Build the inputs into ``directory`` once; later calls read the record.

    The directory appears atomically (built under a temporary name, then
    renamed), so an interrupted run never leaves a half-written input set.
    """
    record_path = directory / "inputs.json"
    if record_path.exists():
        return json.loads(record_path.read_text())
    staging = directory.with_name(f"{directory.name}.tmp{os.getpid()}")
    shutil.rmtree(staging, ignore_errors=True)
    staging.mkdir(parents=True)
    records = build(staging)
    (staging / "inputs.json").write_text(json.dumps(records, indent=1, sort_keys=True))
    shutil.rmtree(directory, ignore_errors=True)
    staging.rename(directory)
    return records

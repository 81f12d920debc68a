"""The generated inputs depend on the seed and on nothing else, and every
seed holds the same days and series."""

import csv

import inputs


def _rows(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


def _days(path):
    """Each day's samples as (minute of the day, value per series name)."""
    header, *rows = _rows(path)
    names = header[1:]
    days = {}
    for row in rows:
        minute = float(row[0])
        day = days.setdefault(minute // inputs.DAY, [])
        day.append((minute % inputs.DAY, tuple(sorted(zip(names, row[1:])))))
    return sorted(tuple(samples) for samples in days.values()), sorted(names)


def test_shuffle_is_deterministic_per_seed(tmp_path):
    records = {}
    for name, seed in (("a", 3), ("b", 3), ("c", 4)):
        (tmp_path / name).mkdir()
        records[name] = inputs.shuffled_csv(tmp_path / name, "dataport", 0.2, 8, seed)
    first, again, other = (
        (tmp_path / name / "data.csv").read_bytes() for name in ("a", "b", "c")
    )
    assert first == again
    assert first != other
    assert records["a"] == records["b"]
    assert records["a"]["data"]["house_sha256"] == records["c"]["data"]["house_sha256"]
    assert records["a"]["data"]["sequences"] == 8


def test_every_seed_holds_the_same_days_and_series(tmp_path):
    for name, seed in (("a", 1), ("b", 2)):
        (tmp_path / name).mkdir()
        inputs.shuffled_csv(tmp_path / name, "dataport", 0.2, 8, seed)
    assert _days(tmp_path / "a" / "data.csv") == _days(tmp_path / "b" / "data.csv")
    fixed, _ = inputs.house("dataport", 0.2, 8)
    assert _days(tmp_path / "a" / "data.csv")[1] == sorted(fixed.names)


def test_day_split_partitions_whole_days(tmp_path):
    records = inputs.day_split_csvs(tmp_path, "dataport", 0.2, 10, seed=5)
    full = _rows(tmp_path / "full.csv")
    parts = [_rows(tmp_path / f"{name}.csv") for name in ("base", "delta1", "delta2")]
    assert all(part[0] == full[0] for part in parts)
    assert [row for part in parts for row in part[1:]] == full[1:]
    assert [records[name]["sequences"] for name in ("base", "delta1", "delta2")] == [8, 1, 1]
    for part in parts[1:]:
        assert float(part[1][0]) % inputs.DAY == 0.0
    for record in records.values():
        assert set(record) == {"file", "series", "samples", "sequences", "bytes", "house_sha256"}


def test_cached_builds_once(tmp_path):
    calls = []

    def build(directory):
        calls.append(directory)
        (directory / "x.csv").write_text("timestamp\n")
        return {"x": {"bytes": 10}}

    target = tmp_path / "w" / "1"
    assert inputs.cached(target, build) == {"x": {"bytes": 10}}
    assert inputs.cached(target, build) == {"x": {"bytes": 10}}
    assert len(calls) == 1
    assert (target / "x.csv").exists()
    assert sorted(path.name for path in (tmp_path / "w").iterdir()) == ["1"]

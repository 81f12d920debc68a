"""The columnar occurrence store: index matrices, gather parity, chunking,
kernel routing.

The store's contract (see :class:`repro.core.hpg.PatternEntry`) is that the
int32 index matrices are a lossless re-encoding of the historical
instance-tuple lists: gather-built endpoint blocks equal the old per-call list
comprehensions bit for bit, per-hit and batched inserts build the identical
matrix, and the lazy ``occurrences`` view materialises the exact tuples the
old store held.  Chunking and scalar/kernel routing are pure scheduling
choices and must never change a mined result.
"""

from __future__ import annotations

import os
import pickle
import random
import subprocess
import sys
import textwrap
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import repro.core.engine as engine_module
from repro import (
    ConfigurationError,
    HTPGM,
    MiningConfig,
    MiningSession,
    Relation,
    TemporalPattern,
)
from repro.core.engine import _anchor_chunks
from repro.core.hpg import EventNode, PatternEntry
from repro.core.bitmap import Bitmap
from repro.timeseries import EventInstance, SequenceDatabase, TemporalSequence

from test_engine_parity import mined_tuples, random_database


def _pattern(size: int) -> TemporalPattern:
    events = tuple((f"S{i}", "On") for i in range(size))
    n_relations = size * (size - 1) // 2
    return TemporalPattern(events=events, relations=(Relation.FOLLOW,) * n_relations)


def _event_node(series: str, instances_by_sequence) -> EventNode:
    return EventNode(
        event=(series, "On"),
        bitmap=Bitmap.from_indices(
            max(instances_by_sequence) + 1, instances_by_sequence.keys()
        ),
        instances_by_sequence=instances_by_sequence,
    )


def _random_instances(rng: random.Random, series: str, count: int):
    """A chronologically sorted instance list (duplicates collapsed)."""
    instances = set()
    while len(instances) < count:
        start = round(rng.uniform(0.0, 500.0), 1)
        instances.add(
            EventInstance(start, start + round(rng.uniform(1.0, 30.0), 1), series, "On")
        )
    return sorted(instances)


class TestIndexStore:
    def test_per_hit_and_batched_inserts_build_the_identical_matrix(self):
        rng = random.Random(3)
        pattern = _pattern(3)
        rows = [
            tuple(rng.randrange(50) for _ in range(3)) for _ in range(200)
        ]
        per_hit = PatternEntry(pattern=pattern)
        for row in rows:
            per_hit.add_index_row(7, row)
        batched = PatternEntry(pattern=pattern)
        position = 0
        while position < len(rows):
            width = rng.randint(1, 40)
            block = np.asarray(rows[position : position + width], dtype=np.int32)
            batched.add_index_block(7, block)
            position += width
        assert np.array_equal(per_hit.index_matrix(7), batched.index_matrix(7))
        assert per_hit == batched
        assert per_hit.n_occurrences == batched.n_occurrences == len(rows)

    def test_mixed_rows_and_blocks_consolidate_in_arrival_order(self):
        pattern = _pattern(2)
        entry = PatternEntry(pattern=pattern)
        entry.add_index_row(0, (0, 1))
        entry.add_index_block(0, np.asarray([(2, 3), (4, 5)], dtype=np.int32))
        entry.add_index_row(0, (6, 7))
        assert entry.index_matrix(0).tolist() == [[0, 1], [2, 3], [4, 5], [6, 7]]
        # Appending after consolidation reopens the build list.
        entry.add_index_row(0, (8, 9))
        assert entry.index_matrix(0).tolist()[-1] == [8, 9]
        assert entry.index_matrix(0).dtype == np.int32

    def test_summarised_entry_rejects_inserts_and_keeps_counts(self):
        entry = PatternEntry(pattern=_pattern(2))
        entry.add_index_row(0, (0, 0))
        entry.add_index_row(0, (1, 0))
        entry.add_index_row(3, (0, 1))
        entry.summarise()
        assert entry.is_summary
        assert entry.occurrence_counts == {0: 2, 3: 1}
        assert entry.occurrence_counts_by_sequence() == {0: 2, 3: 1}
        assert entry.support == 2 and entry.n_occurrences == 3
        assert entry.occurrences == {}
        with pytest.raises(ValueError):
            entry.add_index_row(0, (0, 0))
        with pytest.raises(ValueError):
            entry.add_index_block(0, np.zeros((1, 2), dtype=np.int32))

    def test_unbound_entry_raises_on_materialisation(self):
        entry = PatternEntry(pattern=_pattern(2))
        entry.add_index_row(0, (0, 0))
        assert not entry.is_bound
        with pytest.raises(ValueError, match="no bound instance sources"):
            entry.materialise(0)

    def test_pickle_ships_matrices_only_and_rebinds(self):
        rng = random.Random(11)
        instances_a = _random_instances(rng, "A", 20)
        instances_b = _random_instances(rng, "B", 20)
        node_a = _event_node("A", {0: instances_a})
        node_b = _event_node("B", {0: instances_b})
        level1 = {node_a.event: node_a, node_b.event: node_b}
        pattern = TemporalPattern(
            events=(node_a.event, node_b.event), relations=(Relation.FOLLOW,)
        )
        entry = PatternEntry(
            pattern=pattern,
            sources=(node_a.instances_by_sequence, node_b.instances_by_sequence),
        )
        for _ in range(30):
            entry.add_index_row(0, (rng.randrange(20), rng.randrange(20)))
        restored = pickle.loads(pickle.dumps(entry))
        assert not restored.is_bound  # sources are process-local
        assert np.array_equal(restored.index_matrix(0), entry.index_matrix(0))
        assert restored == entry
        restored.bind_sources(level1)
        assert restored.occurrences == entry.occurrences

    def test_gather_built_endpoint_blocks_match_list_comprehension_fuzz(self):
        """The tentpole equivalence: ``starts[idx]`` gathers == the legacy
        per-call list comprehension over instance objects, fuzzed over random
        stores."""
        rng = random.Random(29)
        for _ in range(25):
            k = rng.randint(2, 4)
            nodes = [
                _event_node(f"S{j}", {0: _random_instances(rng, f"S{j}", rng.randint(5, 40))})
                for j in range(k)
            ]
            pattern = TemporalPattern(
                events=tuple(node.event for node in nodes),
                relations=(Relation.FOLLOW,) * (k * (k - 1) // 2),
            )
            entry = PatternEntry(
                pattern=pattern,
                sources=tuple(node.instances_by_sequence for node in nodes),
            )
            for _ in range(rng.randint(1, 60)):
                entry.add_index_row(
                    0,
                    tuple(
                        rng.randrange(len(node.instances_by_sequence[0]))
                        for node in nodes
                    ),
                )
            matrix = entry.index_matrix(0)
            gathered_starts = np.column_stack(
                [nodes[j].sequence_arrays(0)[0][matrix[:, j]] for j in range(k)]
            )
            gathered_ends = np.column_stack(
                [nodes[j].sequence_arrays(0)[1][matrix[:, j]] for j in range(k)]
            )
            occurrences = entry.materialise(0)
            legacy_starts = np.array(
                [[instance.start for instance in occ] for occ in occurrences],
                dtype=np.float64,
            )
            legacy_ends = np.array(
                [[instance.end for instance in occ] for occ in occurrences],
                dtype=np.float64,
            )
            assert np.array_equal(gathered_starts, legacy_starts)
            assert np.array_equal(gathered_ends, legacy_ends)

    def test_mined_store_blocks_match_legacy_construction(self):
        """Same equivalence over a store a real mine produced."""
        session = MiningSession(
            MiningConfig(min_support=0.3, min_confidence=0.3, min_overlap=1.0)
        )
        session.mine(random_database(5, n_sequences=10, max_instances=12))
        graph = session.graph
        checked = 0
        for _level, _node, entry in graph.iter_pattern_entries():
            nodes = [graph.level1[event] for event in entry.pattern.events]
            for sequence_id, matrix in entry.iter_index_matrices():
                gathered = np.column_stack(
                    [
                        nodes[j].sequence_arrays(sequence_id)[0][matrix[:, j]]
                        for j in range(len(nodes))
                    ]
                )
                legacy = np.array(
                    [
                        [instance.start for instance in occurrence]
                        for occurrence in entry.materialise(sequence_id)
                    ],
                    dtype=np.float64,
                )
                assert np.array_equal(gathered, legacy)
                checked += 1
        assert checked > 0


class TestOverflowGuard:
    """Insertions past the int32 index ceiling must raise, never wrap.

    ``np.astype(int32)`` wraps silently, so without the guard an instance
    list longer than ``2**31 - 1`` would corrupt the store in place.  The
    boundary is exercised by shrinking the mocked ceiling — allocating real
    2-billion-row inputs is obviously off the table.
    """

    def test_error_is_exported_and_a_mining_error(self):
        from repro import MiningError, RepresentationOverflowError

        assert issubclass(RepresentationOverflowError, MiningError)

    def test_block_insert_past_the_ceiling_raises(self, monkeypatch):
        import repro.core.hpg as hpg_module
        from repro import RepresentationOverflowError

        monkeypatch.setattr(hpg_module, "_INDEX_MAX", 100)
        entry = PatternEntry(pattern=_pattern(2))
        entry.add_index_block(0, np.array([[0, 1], [2, 3]], dtype=np.int64))
        with pytest.raises(RepresentationOverflowError, match="does not fit"):
            entry.add_index_block(1, np.array([[0, 101]], dtype=np.int64))

    def test_scalar_rows_past_the_ceiling_raise_on_consolidation(self, monkeypatch):
        import repro.core.hpg as hpg_module
        from repro import RepresentationOverflowError

        monkeypatch.setattr(hpg_module, "_INDEX_MAX", 100)
        entry = PatternEntry(pattern=_pattern(2))
        entry.add_index_row(0, (0, 101))
        with pytest.raises(RepresentationOverflowError, match="does not fit"):
            entry.index_matrix(0)

    def test_true_int32_boundary(self):
        from repro import RepresentationOverflowError

        limit = 2**31 - 1
        entry = PatternEntry(pattern=_pattern(2))
        entry.add_index_block(0, np.array([[0, limit]], dtype=np.int64))
        assert entry.index_matrix(0).dtype == np.int32
        assert int(entry.index_matrix(0)[0, 1]) == limit
        with pytest.raises(RepresentationOverflowError):
            entry.add_index_block(1, np.array([[0, limit + 1]], dtype=np.int64))

    def test_in_range_blocks_are_unaffected(self, monkeypatch):
        import repro.core.hpg as hpg_module

        monkeypatch.setattr(hpg_module, "_INDEX_MAX", 100)
        entry = PatternEntry(pattern=_pattern(2))
        entry.add_index_row(0, (99, 100))
        entry.add_index_block(1, np.array([[7, 8]], dtype=np.int64))
        assert entry.index_matrix(0).tolist() == [[99, 100]]
        assert entry.index_matrix(1).tolist() == [[7, 8]]
        assert entry.index_matrix(0).dtype == np.int32


class TestKernelChunking:
    def test_anchor_chunks_cover_everything_in_order(self):
        lo = np.array([0, 0, 2, 5, 5], dtype=np.intp)
        hi = np.array([4, 3, 9, 5, 30], dtype=np.intp)
        for max_pairs in (1, 3, 7, 100, None):
            ranges = list(_anchor_chunks(lo, hi, max_pairs))
            assert ranges[0][0] == 0 and ranges[-1][1] == len(lo)
            for (_, stop), (next_start, _) in zip(ranges, ranges[1:]):
                assert stop == next_start
            if max_pairs is None:
                assert ranges == [(0, len(lo))]

    def test_anchor_chunks_respect_the_budget(self):
        lo = np.zeros(20, dtype=np.intp)
        hi = np.full(20, 10, dtype=np.intp)  # 10 pairs per anchor, 200 total
        ranges = list(_anchor_chunks(lo, hi, 25))
        assert all(stop - start <= 3 for start, stop in ranges)  # 2.5 anchors/chunk
        assert sum(stop - start for start, stop in ranges) == 20

    def test_single_oversized_anchor_still_progresses(self):
        lo = np.array([0], dtype=np.intp)
        hi = np.array([1000], dtype=np.intp)
        assert list(_anchor_chunks(lo, hi, 10)) == [(0, 1)]

    def test_empty_anchors(self):
        empty = np.empty(0, dtype=np.intp)
        assert list(_anchor_chunks(empty, empty, 10)) == []

    @pytest.mark.parametrize("tmax", [None, 60.0])
    def test_tiny_chunk_budget_changes_nothing(self, tmax, monkeypatch):
        """A pathologically small mask budget forces many chunks at both
        kernel entry points; results and counters must be untouched —
        including on the ``tmax=None`` dense workload the budget exists for."""
        monkeypatch.setattr(engine_module, "_KERNEL_MIN_PAIRS", 1)  # kernel everywhere
        database = random_database(31, n_sequences=6, n_series=2, max_instances=40)
        base = MiningConfig(
            min_support=0.3,
            min_confidence=0.3,
            min_overlap=1.0,
            tmax=tmax,
            max_pattern_size=3,
        )
        chunked = HTPGM(replace(base, kernel_chunk_bytes=64)).mine(database)
        unchunked = HTPGM(replace(base, kernel_chunk_bytes=None)).mine(database)
        assert mined_tuples(chunked) == mined_tuples(unchunked)
        assert (
            chunked.statistics.relation_checks == unchunked.statistics.relation_checks
        )
        assert (
            chunked.statistics.pruned_relation_checks
            == unchunked.statistics.pruned_relation_checks
        )

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            MiningConfig(kernel_chunk_bytes=0)
        with pytest.raises(ConfigurationError):
            MiningConfig(kernel_chunk_bytes=-1)
        assert MiningConfig(kernel_chunk_bytes=None).kernel_chunk_bytes is None
        assert MiningConfig().kernel_chunk_bytes == 64 * 1024 * 1024


class TestKernelRouting:
    @pytest.mark.parametrize("threshold", [1, 10**9])
    def test_extreme_thresholds_mine_the_identical_output(self, threshold, monkeypatch):
        """A threshold of 1 forces the kernel everywhere, 10**9 forces the
        scalar loop everywhere; routing is a pure scheduling choice."""
        monkeypatch.setattr(engine_module, "_KERNEL_MIN_PAIRS", threshold)
        database = random_database(19, n_sequences=8)
        config = MiningConfig(min_support=0.25, min_confidence=0.25, min_overlap=1.0)
        forced = HTPGM(config).mine(database)
        reference = HTPGM(config.with_vectorized(False)).mine(database)
        assert mined_tuples(forced) == mined_tuples(reference)
        assert (
            forced.statistics.relation_checks
            == reference.statistics.relation_checks
        )

    @pytest.mark.parametrize(
        "threshold,expected", [(64, {1}), (1, {0, 1}), (10**9, set())]
    )
    def test_prebuild_follows_the_engine_threshold(
        self, threshold, expected, monkeypatch
    ):
        """Eager columnar views are built exactly for the instance lists
        whose self-pairing reaches the kernel threshold (3² < 64 <= 9²)."""
        from repro.core.session import _prebuild_columnar_views

        monkeypatch.setattr(engine_module, "_KERNEL_MIN_PAIRS", threshold)
        rng = random.Random(4)
        node = _event_node(
            "A", {0: _random_instances(rng, "A", 3), 1: _random_instances(rng, "A", 9)}
        )
        _prebuild_columnar_views(node)
        assert set(node._sequence_arrays or {}) == expected

    def test_sparse_default_mine_never_calls_the_kernel(self):
        """A default vectorized serial mine of sparse data stays on the
        scalar loop: no ``classify_pairs`` call at all, not even a timing
        probe.  A fresh interpreter, so no state from an earlier test (a
        cached threshold, a warmed kernel) can hide a call."""
        script = textwrap.dedent(
            """
            import repro.core.engine as engine
            from repro import HTPGM, MiningConfig
            from test_engine_parity import random_database

            calls = []
            original = engine.classify_pairs

            def counting(*args, **kwargs):
                calls.append(len(args[0]))
                return original(*args, **kwargs)

            engine.classify_pairs = counting
            config = MiningConfig(min_support=0.3, min_confidence=0.3, min_overlap=1.0)
            result = HTPGM(config).mine(random_database(5, n_sequences=10))
            assert len(result) > 0
            print(len(calls))
            """
        )
        tests_dir = Path(__file__).resolve().parent
        src_dir = tests_dir.parent / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(src_dir), str(tests_dir)]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        completed = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=env,
            check=True,
            timeout=300,
        )
        assert completed.stdout.strip() == "0"

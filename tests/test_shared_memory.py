"""The zero-copy shared-memory transport (:mod:`repro.core.shm`).

Three concerns, layered:

* :class:`SharedArrayStore` and the shared pickler — arrays pack into one
  block at aligned offsets, descriptors resolve to read-only views, nodes
  ship their columnar caches instead of dropping them.
* Block lifecycle — every name the coordinator generates is unlinked on
  every exit path (happy, worker exception, worker *crash*, double close),
  so ``/dev/shm`` never accumulates ``repro-*`` entries.  The autouse
  fixture in ``conftest.py`` backstops every other test in the suite.
* The worker entry point — ``engine._call_shard`` serves every transport
  (inherited or shipped payload, pickled or shared-memory response), and
  workers of every start method route batches by the same module-constant
  kernel threshold.
"""

from __future__ import annotations

import os
import pickle

import numpy as np
import pytest
from concurrent.futures.process import BrokenProcessPool

from repro import (
    MiningConfig,
    MiningSession,
    ProcessPoolBackend,
    RetryPolicy,
    SerialBackend,
)
from repro.core import engine, shm
from repro.core.bitmap import Bitmap
from repro.core.engine import backend_from_config
from repro.core.hpg import EventNode, PatternEntry
from repro.timeseries import EventInstance

from test_engine_parity import mined_tuples, random_database, store_snapshot

pytestmark = pytest.mark.skipif(
    not shm.shared_memory_available(),
    reason="multiprocessing.shared_memory unavailable on this platform",
)

CONFIG = MiningConfig(min_support=0.3, min_confidence=0.3, min_overlap=1.0)


def _shm_entries() -> set[str]:
    """Names of live repro blocks (empty off-Linux: lifecycle asserts only)."""
    try:
        return {name for name in os.listdir("/dev/shm") if name.startswith("repro-")}
    except FileNotFoundError:  # pragma: no cover - non-Linux
        return set()


# Worker functions must be module-level so the spawn transport can pickle
# references to them.
def _echo_shard(payload, items):
    return list(items)


def _failing_shard(payload, items):
    raise ValueError("worker says no")


def _crashing_shard(payload, items):
    os._exit(13)


def _tag_shard(payload, items):
    return (payload, list(items))


def _rows_shard(payload, items):
    return {"rows": payload["rows"][items]}


class TestSharedArrayStore:
    def test_roundtrip_preserves_values_shapes_and_alignment(self):
        arrays = [
            np.arange(12, dtype=np.int32).reshape(3, 4),
            np.linspace(0.0, 1.0, 7),
            np.array([[1.5, -2.5]], dtype=np.float32),
        ]
        with shm.SharedArrayStore() as store:
            refs = [store.add(array) for array in arrays]
            store.seal()
            for ref, array in zip(refs, arrays):
                assert ref.offset % 64 == 0
                view = shm.attach_array(ref)
                assert view.dtype == array.dtype
                np.testing.assert_array_equal(view, array)

    def test_views_are_read_only(self):
        with shm.SharedArrayStore() as store:
            ref = store.add(np.arange(4))
            store.seal()
            view = shm.attach_array(ref)
            with pytest.raises(ValueError):
                view[0] = 99

    def test_sealed_store_rejects_further_adds(self):
        with shm.SharedArrayStore() as store:
            store.add(np.arange(3))
            store.seal()
            with pytest.raises(ValueError):
                store.add(np.arange(3))

    def test_close_and_unlink_are_idempotent(self):
        store = shm.SharedArrayStore()
        store.add(np.arange(8))
        store.seal()
        name = store.name
        store.close()
        store.close()
        store.unlink()
        store.unlink()
        assert name not in _shm_entries()

    def test_context_manager_unlinks_on_exit(self):
        with shm.SharedArrayStore() as store:
            store.add(np.arange(5))
            store.seal()
            name = store.name
            assert name in _shm_entries()
        assert name not in _shm_entries()

    def test_unsealed_store_unlink_is_a_noop(self):
        store = shm.SharedArrayStore()
        store.add(np.arange(5))
        store.unlink()  # nothing was ever created

    def test_generated_names_fit_the_posix_limit(self):
        # macOS caps shm names at 31 characters (including the leading /).
        for _ in range(5):
            name = shm.generate_block_name()
            assert name.startswith("repro-")
            assert len(name) <= 30


class TestSharedPickler:
    def test_arrays_divert_into_the_store(self):
        payload = {
            "matrix": np.arange(600, dtype=np.int32).reshape(100, 6),
            "starts": np.linspace(0.0, 50.0, 200),
            "scalar": 42,
            "text": "untouched",
        }
        with shm.SharedArrayStore() as store:
            blob = shm.dumps_shared(payload, store)
            assert store.n_arrays == 2
            store.seal()
            # The blob carries descriptors, not array data.
            assert len(blob) < len(pickle.dumps(payload)) - 1000
            restored = pickle.loads(blob)
        np.testing.assert_array_equal(restored["matrix"], payload["matrix"])
        np.testing.assert_array_equal(restored["starts"], payload["starts"])
        assert restored["scalar"] == 42 and restored["text"] == "untouched"
        assert not restored["matrix"].flags.writeable

    def test_empty_scalar_and_object_arrays_stay_inline(self):
        payload = [
            np.empty((0, 3), dtype=np.int32),
            np.float64(3.5),
            np.array(7),
            np.array(["a", None], dtype=object),
        ]
        with shm.SharedArrayStore() as store:
            blob = shm.dumps_shared(payload, store)
            assert store.n_arrays == 0
            restored = pickle.loads(blob)
        np.testing.assert_array_equal(restored[0], payload[0])
        assert restored[2] == 7

    def test_event_node_ships_its_columnar_caches(self):
        instances = {
            0: [
                EventInstance(start=1.0, end=3.0, series="S0", symbol="On"),
                EventInstance(start=5.0, end=9.0, series="S0", symbol="On"),
            ],
            2: [EventInstance(start=2.0, end=4.0, series="S0", symbol="On")],
        }
        node = EventNode(
            event=("S0", "On"),
            bitmap=Bitmap.from_indices(3, [0, 2]),
            instances_by_sequence=instances,
        )
        node.build_sequence_arrays()
        node.instance_counts(3)
        # Plain pickle drops the derived caches...
        plain = pickle.loads(pickle.dumps(node))
        assert plain._sequence_arrays is None
        assert plain._instance_counts is None
        # ...the shared transport ships them as views.
        with shm.SharedArrayStore() as store:
            blob = shm.dumps_shared(node, store)
            store.seal()
            shipped = pickle.loads(blob)
        assert shipped.event == node.event
        assert shipped.bitmap == node.bitmap
        assert set(shipped._sequence_arrays) == {0, 2}
        for sequence_id in (0, 2):
            for side in (0, 1):
                np.testing.assert_array_equal(
                    shipped.sequence_arrays(sequence_id)[side],
                    node.sequence_arrays(sequence_id)[side],
                )
        np.testing.assert_array_equal(
            shipped.instance_counts(3), node.instance_counts(3)
        )

    def test_pattern_entry_round_trips_by_matrix(self):
        from repro.core.patterns import TemporalPattern
        from repro.core.relations import Relation

        pattern = TemporalPattern(
            events=(("S0", "On"), ("S1", "On")), relations=(Relation.FOLLOW,)
        )
        entry = PatternEntry(pattern=pattern)
        entry.add_index_row(0, (0, 1))
        entry.add_index_row(0, (1, 0))
        entry.add_index_row(3, (2, 2))
        with shm.SharedArrayStore() as store:
            blob = shm.dumps_shared(entry, store)
            assert store.n_arrays == 2  # one matrix per supporting sequence
            store.seal()
            shipped = pickle.loads(blob)
        assert shipped.pattern == entry.pattern
        assert not shipped.is_summary
        assert shipped.sequence_ids() == {0, 3}
        np.testing.assert_array_equal(shipped.index_matrix(0), entry.index_matrix(0))
        np.testing.assert_array_equal(shipped.index_matrix(3), entry.index_matrix(3))

    def test_summarised_entry_round_trips_by_counts(self):
        entry = PatternEntry(pattern=("stub",), occurrence_counts={1: 4, 5: 2})
        with shm.SharedArrayStore() as store:
            blob = shm.dumps_shared(entry, store)
            shipped = pickle.loads(blob)
        assert shipped.is_summary
        assert shipped.occurrence_counts == {1: 4, 5: 2}

    def test_request_pack_and_load_round_trip(self):
        payload = {"arrays": [np.arange(100), np.ones((4, 4))], "meta": "x"}
        request, store = shm.pack_request(payload)
        try:
            assert request.name == store.name
            restored = shm.load_request(request)
            np.testing.assert_array_equal(restored["arrays"][0], payload["arrays"][0])
            assert restored["meta"] == "x"
            # Same block name resolves from the worker-side cache.
            assert shm.load_request(request) is restored
        finally:
            store.unlink()

    def test_array_free_results_skip_the_block(self):
        name = shm.generate_block_name()
        outcome = shm.pack_shared({"counts": {1: 2}}, name)
        assert not isinstance(outcome, shm.SharedOutcome)
        assert name not in _shm_entries()

    def test_pack_and_load_shared_unlink_the_block(self):
        name = shm.generate_block_name()
        outcome = shm.pack_shared({"rows": np.arange(32, dtype=np.int32)}, name)
        assert isinstance(outcome, shm.SharedOutcome)
        assert name in _shm_entries()
        restored = shm.load_shared(outcome)
        np.testing.assert_array_equal(restored["rows"], np.arange(32))
        assert name not in _shm_entries()
        # The view outlives the unlink: the mapping is retained process-wide.
        assert int(restored["rows"].sum()) == 496


class TestBackendLifecycle:
    def test_worker_exception_leaves_no_blocks(self):
        before = _shm_entries()
        with ProcessPoolBackend(
            n_workers=2, min_candidates_per_worker=1, shared_memory=True
        ) as backend:
            with pytest.raises(ValueError, match="worker says no"):
                backend.map_shards(_failing_shard, None, list(range(8)))
            assert _shm_entries() == before
            # The backend survives a worker exception.
            results = backend.map_shards(_echo_shard, None, list(range(8)))
            assert sorted(sum(results, [])) == list(range(8))

    def test_worker_crash_leaves_no_blocks_and_backend_reusable(self):
        before = _shm_entries()
        with ProcessPoolBackend(
            n_workers=2,
            min_candidates_per_worker=1,
            shared_memory=True,
            retry=RetryPolicy(max_retries=0),
        ) as backend:
            with pytest.raises(BrokenProcessPool):
                backend.map_shards(_crashing_shard, None, list(range(8)))
            assert _shm_entries() == before
            serial = MiningSession(CONFIG)
            serial.mine(random_database(3), backend=SerialBackend())
            recovered = MiningSession(CONFIG)
            recovered.mine(random_database(3), backend=backend)
            assert store_snapshot(recovered.graph) == store_snapshot(serial.graph)

    def test_pooled_crash_drops_the_broken_executor(self):
        before = _shm_entries()
        with ProcessPoolBackend(
            n_workers=2,
            min_candidates_per_worker=1,
            shared_memory=True,
            start_method="spawn",
            retry=RetryPolicy(max_retries=0),
        ) as backend:
            with pytest.raises(BrokenProcessPool):
                backend.map_shards(_crashing_shard, None, list(range(8)))
            assert backend._executor is None  # broken pool was not leaked
            assert _shm_entries() == before
            results = backend.map_shards(_echo_shard, None, list(range(8)))
            assert sorted(sum(results, [])) == list(range(8))

    def test_double_close_is_idempotent(self):
        backend = ProcessPoolBackend(n_workers=2, shared_memory=True)
        backend.close()
        backend.close()

    def test_fallback_when_shared_memory_unavailable(self, monkeypatch):
        monkeypatch.setattr(shm, "shared_memory_available", lambda: False)
        backend = ProcessPoolBackend(
            n_workers=2, min_candidates_per_worker=1, shared_memory=True
        )
        try:
            assert backend.shared_memory is True
            assert backend.shared_memory_active is False
            database = random_database(5)
            serial = mined_tuples(MiningSession(CONFIG).mine(database))
            parallel = mined_tuples(
                MiningSession(CONFIG).mine(database, backend=backend)
            )
            assert serial == parallel
        finally:
            backend.close()

    def test_backend_from_config_threads_the_flag(self):
        backend = backend_from_config(
            MiningConfig(engine="process", n_workers=2, shared_memory=True)
        )
        try:
            assert backend.shared_memory is True
        finally:
            backend.close()
        serial = backend_from_config(MiningConfig())
        assert isinstance(serial, SerialBackend)

    def test_invalid_start_method_rejected(self):
        from repro import ConfigurationError

        with pytest.raises(ConfigurationError):
            ProcessPoolBackend(n_workers=2, start_method="telepathy")


class TestCallShard:
    """The one worker entry point, called in-process in each transport mode."""

    def test_inherited_payload_when_func_is_none(self, monkeypatch):
        monkeypatch.setattr(engine, "_FORK_PAYLOAD", (_tag_shard, "inherited"))
        result = engine._call_shard(None, None, [1, 2], None, None)
        assert result == ("inherited", [1, 2])

    def test_shipped_func_and_payload(self):
        assert engine._call_shard(_tag_shard, "shipped", [3], None, None) == (
            "shipped",
            [3],
        )

    def test_shared_request_is_mapped(self):
        request, store = shm.pack_request({"rows": np.arange(10, dtype=np.int32)})
        try:
            result = engine._call_shard(_rows_shard, request, [2, 5], None, None)
        finally:
            store.unlink()
        np.testing.assert_array_equal(result["rows"], [2, 5])

    def test_response_travels_through_the_named_block(self):
        name = shm.generate_block_name()
        payload = {"rows": np.arange(10, dtype=np.int32)}
        outcome = engine._call_shard(_rows_shard, payload, [1, 4, 7], name, None)
        assert isinstance(outcome, shm.SharedOutcome)
        assert outcome.name == name
        restored = shm.load_shared(outcome)
        np.testing.assert_array_equal(restored["rows"], [1, 4, 7])
        assert name not in _shm_entries()

    def test_shm_directive_falls_back_to_pickle(self):
        name = shm.generate_block_name()
        payload = {"rows": np.arange(10, dtype=np.int32)}
        outcome = engine._call_shard(_rows_shard, payload, [3], name, ("shm", 0.0))
        assert isinstance(outcome, shm.SharedFallback)
        np.testing.assert_array_equal(outcome.result["rows"], [3])
        assert name not in _shm_entries()

    def test_pickle_directive_raises_before_evaluation(self):
        with pytest.raises(pickle.PicklingError):
            engine._call_shard(_failing_shard, None, [1], None, ("pickle", 0.0))


class TestKernelThreshold:
    @pytest.mark.parametrize("vectorized", [True, False])
    def test_level_context_ships_the_config_unchanged(self, vectorized):
        config = CONFIG.with_vectorized(vectorized)
        context = MiningSession(config)._level_context(
            _graph_stub(), level=2, min_count=1, candidates=[]
        )
        assert context.config == config


def _graph_stub():
    from repro.core.hpg import HierarchicalPatternGraph

    return HierarchicalPatternGraph(n_sequences=0, level1={}, levels={})

"""Save/load round-trips for incremental mining sessions (repro.io.session_io)."""

from __future__ import annotations

import pickle
from dataclasses import replace

import pytest

from repro import DataError, MiningConfig, MiningError, MiningSession, RetryPolicy
from repro.io import read_session, write_session
from repro.io.session_io import FORMAT_NAME, FORMAT_VERSION

from test_session import mined_tuples, random_database, split_database

CONFIG = MiningConfig(min_support=0.3, min_confidence=0.3, min_overlap=1.0)


@pytest.fixture()
def mined_session():
    session = MiningSession(CONFIG)
    session.mine(random_database(0, n_sequences=14))
    return session


class TestRoundTrip:
    def test_loaded_session_equals_original(self, mined_session, tmp_path):
        path = write_session(mined_session, tmp_path / "state.bin")
        loaded = read_session(path)
        assert loaded.config == mined_session.config
        assert loaded.n_sequences == mined_session.n_sequences
        assert loaded.retain_occurrences
        assert loaded.appends == mined_session.appends
        assert set(loaded.events) == set(mined_session.events)
        assert list(loaded.graph.level1) == list(mined_session.graph.level1)
        assert {
            level: set(nodes) for level, nodes in loaded.graph.levels.items()
        } == {
            level: set(nodes)
            for level, nodes in mined_session.graph.levels.items()
        }

    def test_append_after_reload_matches_append_on_original(
        self, mined_session, tmp_path
    ):
        """The acid test: persistence must not perturb the merge."""
        delta = random_database(9, n_sequences=3).sequences
        path = write_session(mined_session, tmp_path / "state.bin")
        loaded = read_session(path)
        original_result = mined_session.append(list(delta))
        loaded_result = loaded.append(list(delta))
        assert mined_tuples(loaded_result) == mined_tuples(original_result)

    def test_save_load_save_chain(self, tmp_path):
        """Sessions survive repeated persist/append cycles, as the CLI does."""
        database = random_database(1, n_sequences=16)
        base, delta = split_database(database, 0.75)
        session = MiningSession(CONFIG)
        session.mine(base)
        path = tmp_path / "state.bin"
        for sequence in delta:
            write_session(session, path)
            session = read_session(path)
            result = session.append([sequence])
        from repro import HTPGM

        assert mined_tuples(result) == mined_tuples(HTPGM(CONFIG).mine(database))
        assert session.appends == len(delta)

    def test_level1_nodes_share_identity_with_events(self, mined_session, tmp_path):
        path = write_session(mined_session, tmp_path / "state.bin")
        loaded = read_session(path)
        for key, node in loaded.graph.level1.items():
            assert loaded.events[key] is node


@pytest.fixture()
def deep_session():
    """A session whose graph reaches level 3 (the default ``mined_session``
    database mines nothing at level 2, which would make store-equality
    assertions vacuous)."""
    session = MiningSession(
        MiningConfig(min_support=0.25, min_confidence=0.25, min_overlap=1.0)
    )
    session.mine(random_database(0, n_sequences=14, n_series=3, max_instances=16))
    assert session.graph.levels.get(3), "fixture must reach level 3"
    return session


class TestVersion2Migration:
    """Version-2 files (instance-tuple occurrence lists) still load: the
    legacy tuples are resolved to index matrices against the level-1 instance
    lists, and the migrated session behaves exactly like a native one."""

    @staticmethod
    def _as_v2(payload, graph):
        """Rewrite a freshly written payload into the version-2 wire shape."""
        import numpy as np  # noqa: F401 - parity helpers below use it

        from repro.core.hpg import CombinationNode, PatternEntry

        legacy_levels = {}
        for level, nodes in graph.levels.items():
            legacy_nodes = {}
            for key, node in nodes.items():
                legacy_node = CombinationNode(events=node.events, bitmap=node.bitmap)
                for pattern, entry in node.patterns.items():
                    legacy_entry = PatternEntry.__new__(PatternEntry)
                    # The exact state dict a version-2 pickle delivers.
                    legacy_entry.__setstate__(
                        {
                            "pattern": pattern,
                            "occurrences": {
                                sequence_id: list(occurrences)
                                for sequence_id, occurrences in entry.occurrences.items()
                            },
                            "occurrence_counts": entry.occurrence_counts,
                        }
                    )
                    legacy_node.patterns[pattern] = legacy_entry
                legacy_nodes[key] = legacy_node
            legacy_levels[level] = legacy_nodes
        payload["levels"] = legacy_levels
        payload["version"] = 2
        return payload

    def test_v2_file_loads_with_the_identical_store(self, deep_session, tmp_path):
        import numpy as np

        path = write_session(deep_session, tmp_path / "state.bin")
        assert pickle.loads(path.read_bytes())["version"] == FORMAT_VERSION == 3
        payload = self._as_v2(
            pickle.loads(path.read_bytes()), deep_session.graph
        )
        path.write_bytes(pickle.dumps(payload))
        loaded = read_session(path)
        originals = list(deep_session.graph.iter_pattern_entries())
        migrated = list(loaded.graph.iter_pattern_entries())
        assert len(originals) == len(migrated) > 0
        for (_, _, original), (_, _, entry) in zip(originals, migrated):
            assert original.pattern == entry.pattern
            assert not entry.is_summary
            assert original.sequence_ids() == entry.sequence_ids()
            for sequence_id in original.sequence_ids():
                assert np.array_equal(
                    original.index_matrix(sequence_id),
                    entry.index_matrix(sequence_id),
                )

    def test_append_after_v2_migration_matches_native_append(
        self, deep_session, tmp_path
    ):
        path = write_session(deep_session, tmp_path / "state.bin")
        payload = self._as_v2(pickle.loads(path.read_bytes()), deep_session.graph)
        path.write_bytes(pickle.dumps(payload))
        loaded = read_session(path)
        delta = random_database(9, n_sequences=3, n_series=3, max_instances=16).sequences
        migrated_result = loaded.append(list(delta))
        native_result = deep_session.append(list(delta))
        assert mined_tuples(migrated_result) == mined_tuples(native_result)


class TestRemovedFields:
    """Files written before ``MiningConfig.kernel_min_pairs`` and
    ``RetryPolicy.backoff_multiplier`` were removed still load and append."""

    def test_stale_fields_load_and_append(self, tmp_path):
        from repro import HTPGM

        database = random_database(1, n_sequences=16)
        base, delta = split_database(database, 0.75)
        # Private instances: the default RetryPolicy is shared by every config.
        config = replace(CONFIG, retry=RetryPolicy())
        session = MiningSession(config)
        session.mine(base)
        # The shape an older writer pickled: both fields in the instance state.
        object.__setattr__(config, "kernel_min_pairs", 64)
        object.__setattr__(config.retry, "backoff_multiplier", 2.0)
        path = write_session(session, tmp_path / "state.bin")
        payload = pickle.loads(path.read_bytes())
        assert payload["version"] == FORMAT_VERSION == 3
        assert payload["config"].kernel_min_pairs == 64
        assert payload["config"].retry.backoff_multiplier == 2.0

        loaded = read_session(path)
        assert loaded.config == CONFIG
        result = loaded.append(list(delta))
        assert mined_tuples(result) == mined_tuples(HTPGM(CONFIG).mine(database))


class TestGuards:
    def test_unmined_session_rejected(self, tmp_path):
        with pytest.raises(MiningError):
            write_session(MiningSession(CONFIG), tmp_path / "state.bin")

    def test_throwaway_session_rejected(self, tmp_path):
        session = MiningSession(CONFIG, retain_occurrences=False)
        session.mine(random_database(0))
        with pytest.raises(MiningError):
            write_session(session, tmp_path / "state.bin")

    def test_filtered_session_rejected(self, tmp_path):
        session = MiningSession(CONFIG, event_filter=lambda key: True)
        session.mine(random_database(0))
        with pytest.raises(MiningError):
            write_session(session, tmp_path / "state.bin")

    def test_garbage_file_rejected(self, tmp_path):
        path = tmp_path / "garbage.bin"
        path.write_bytes(b"this is not a session")
        with pytest.raises(DataError):
            read_session(path)

    def test_foreign_pickle_rejected(self, tmp_path):
        path = tmp_path / "other.bin"
        path.write_bytes(pickle.dumps({"something": "else"}))
        with pytest.raises(DataError):
            read_session(path)

    def test_well_formed_envelope_with_missing_keys_rejected(
        self, mined_session, tmp_path
    ):
        path = write_session(mined_session, tmp_path / "state.bin")
        payload = pickle.loads(path.read_bytes())
        del payload["events"]
        path.write_bytes(pickle.dumps(payload))
        with pytest.raises(DataError, match="missing session payload"):
            read_session(path)

    def test_pickle_referencing_unknown_module_rejected(self, tmp_path):
        """A foreign pickle whose classes are not installed here must be a
        DataError, not a raw ModuleNotFoundError traceback."""
        path = tmp_path / "foreign.bin"
        # Protocol-2 pickle of an instance of no_such_module_xyz.Thing.
        path.write_bytes(
            b"\x80\x02cno_such_module_xyz\nThing\nq\x00)\x81q\x01."
        )
        with pytest.raises(DataError):
            read_session(path)

    def test_unsupported_version_rejected(self, mined_session, tmp_path):
        path = write_session(mined_session, tmp_path / "state.bin")
        payload = pickle.loads(path.read_bytes())
        assert payload["format"] == FORMAT_NAME
        payload["version"] = FORMAT_VERSION + 1
        path.write_bytes(pickle.dumps(payload))
        with pytest.raises(DataError):
            read_session(path)

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            read_session(tmp_path / "missing.bin")

    @pytest.mark.parametrize("bad_index", [-1, 10_000])
    def test_corrupted_index_matrix_rejected(self, deep_session, tmp_path, bad_index):
        """A v3 file whose index matrices point outside the instance lists is
        a clean DataError at load time — a negative index would otherwise
        silently materialise the wrong instance via Python indexing."""
        path = write_session(deep_session, tmp_path / "state.bin")
        payload = pickle.loads(path.read_bytes())
        node = next(iter(payload["levels"][2].values()))
        entry = next(iter(node.patterns.values()))
        sequence_id, matrix = next(entry.iter_index_matrices())
        matrix[0, 0] = bad_index
        path.write_bytes(pickle.dumps(payload))
        with pytest.raises(DataError, match="occurrence evidence inconsistent"):
            read_session(path)


class TestAtomicWrite:
    """write_session must never corrupt an existing snapshot mid-write: the
    payload goes to a same-directory temp file, is fsynced, and replaces the
    destination atomically via os.replace."""

    def test_failure_mid_write_leaves_the_previous_file_intact(
        self, mined_session, tmp_path, monkeypatch
    ):
        import repro.io.session_io as session_io_module

        path = write_session(mined_session, tmp_path / "state.bin")
        original_bytes = path.read_bytes()

        def exploding_dump(payload, handle, protocol=None):
            handle.write(b"half a payload")
            raise OSError("disk full")

        monkeypatch.setattr(session_io_module.pickle, "dump", exploding_dump)
        with pytest.raises(OSError, match="disk full"):
            write_session(mined_session, path)
        assert path.read_bytes() == original_bytes
        read_session(path)  # still a loadable snapshot
        assert list(tmp_path.iterdir()) == [path]  # temp file cleaned up

    def test_failure_on_a_fresh_path_leaves_nothing_behind(
        self, mined_session, tmp_path, monkeypatch
    ):
        import repro.io.session_io as session_io_module

        def exploding_dump(payload, handle, protocol=None):
            raise RuntimeError("boom")

        monkeypatch.setattr(session_io_module.pickle, "dump", exploding_dump)
        with pytest.raises(RuntimeError, match="boom"):
            write_session(mined_session, tmp_path / "state.bin")
        assert list(tmp_path.iterdir()) == []

    def test_successful_write_leaves_only_the_destination(
        self, mined_session, tmp_path
    ):
        path = write_session(mined_session, tmp_path / "state.bin")
        assert list(tmp_path.iterdir()) == [path]
        loaded = read_session(path)
        assert loaded.n_sequences == mined_session.n_sequences

    def test_overwrite_is_a_replace_not_a_truncate_then_write(
        self, mined_session, tmp_path
    ):
        path = write_session(mined_session, tmp_path / "state.bin")
        first_stat = path.stat()
        write_session(mined_session, path)
        # A rename-over gives the destination a fresh inode; a truncating
        # open would have kept it.
        assert path.stat().st_ino != first_stat.st_ino
        read_session(path)

"""Persistent mining sessions: explicit HTPGM level state plus incremental append.

Historically :meth:`HTPGM.mine` rebuilt all of its working state — level-1
bitmaps and instance lists, pair and combination node trees, the Hierarchical
Pattern Graph, the statistics — as per-call locals and threw most of it away.
A production deployment that keeps mining the same stream cannot afford that:
new time windows arrive continuously and re-mining the whole sequence database
from scratch repeats almost all of yesterday's work.

:class:`MiningSession` makes that state explicit and serialisable:

* :meth:`MiningSession.append` folds new sequences into that state
  *incrementally*: level-1 bitmaps and instance lists are extended in place,
  and at every level only the candidates whose support sets can actually
  change — combinations whose events co-occur in a delta sequence, or that
  involve a newly frequent event — are re-evaluated; every other node is
  reused as-is (re-checked against the new thresholds, never re-computed);
* :meth:`MiningSession.mine` is an append onto the empty session: with no
  stored state every frequent event is newly frequent, so every candidate
  is evaluated, in candidate order — the ordinary level-wise HTPGM search.
  The session *keeps* the constructed state — every event's bitmap and
  instance lists (frequent or not), the full node trees with their
  occurrence evidence, the statistics;
* :mod:`repro.io.session_io` saves and loads a session, so the mining state
  can outlive the process that built it.

``mine``, ``append`` and the checkpoint ``resume`` share one level loop
(:meth:`MiningSession._run_levels`) and one per-level routine
(:meth:`MiningSession._merge_level`).

The correctness contract (enforced by ``tests/test_session.py``) is exact:

    ``mine(D)`` followed by ``append(ΔD)`` produces the identical
    :class:`~repro.core.result.MiningResult` — patterns, supports,
    confidences, order — as ``mine(D ∪ ΔD)`` from scratch,

for every execution backend and every pruning mode.  The key monotonicity
facts behind the delta rule: appending sequences never lowers the absolute
support threshold, never lowers an event's support, and never adds
occurrences to a pattern whose events do not co-occur in a delta sequence.
An *untouched* pattern therefore keeps its exact support and confidence and
can only *fall out* of the frequent set (threshold re-check, no
re-evaluation), while anything previously pruned that could now become
frequent necessarily involves the delta and is re-evaluated in full.

:class:`HTPGM` remains the stable public miner; its :meth:`~HTPGM.mine` is a
thin wrapper that creates a throwaway session (``retain_occurrences=False``,
which keeps the worker payload optimisations active), runs the levels and
builds the result.  Appendable sessions set ``retain_occurrences=True`` so no
occurrence list is ever summarised away — future appends may need any of
them.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Iterable, Set
from itertools import combinations

import numpy as np

from ..exceptions import MiningError
from ..timeseries.sequences import SequenceDatabase, TemporalSequence
from . import engine, faults
from .bitmap import Bitmap
from .config import MiningConfig
from .engine import (
    Candidate,
    ExecutionBackend,
    LevelContext,
    apriori_pair_prune,
    backend_from_config,
)
from .events import EventKey, collect_events
from .hpg import (
    CombinationNode,
    EventNode,
    HierarchicalPatternGraph,
)
from .patterns import PatternMeasures, TemporalPattern
from .result import MinedPattern, MiningResult
from .stats import MiningStatistics

__all__ = ["MiningSession"]

#: Predicate deciding whether an event participates in mining at all.
EventFilter = Callable[[EventKey], bool]
#: Predicate deciding whether an event pair may form level-2 candidates.
PairFilter = Callable[[EventKey, EventKey], bool]


def _restrict_level1(
    graph: HierarchicalPatternGraph, candidates: list[Candidate]
) -> dict[EventKey, EventNode]:
    """Level-1 nodes of only the events appearing in ``candidates``.

    The level context travels to worker processes, so shipping just the
    needed event nodes (bitmaps + instance lists) keeps the payload minimal
    when filters or transitivity pruning have narrowed the candidate set.
    """
    needed = {event for candidate in candidates for event in candidate}
    return {event: graph.level1[event] for event in graph.level1 if event in needed}


def _prebuild_columnar_views(node: EventNode, sequence_ids=None) -> None:
    """Eagerly build a frequent event's columnar start/end arrays.

    Only instance lists long enough that a pairing could plausibly reach the
    kernel routing threshold (``len² >= engine._KERNEL_MIN_PAIRS``) are
    built here — sparse lists would pay the array-construction cost without
    the kernel ever reading it.  A short
    list paired against a very dense partner can still reach the kernel;
    :meth:`EventNode.sequence_arrays` then builds its arrays lazily, once,
    on first use.
    """
    by_sequence = node.instances_by_sequence
    if sequence_ids is None:
        sequence_ids = by_sequence.keys()
    node.build_sequence_arrays(
        sequence_id
        for sequence_id in sequence_ids
        if len(by_sequence[sequence_id]) ** 2 >= engine._KERNEL_MIN_PAIRS
    )


# --------------------------------------------------------------------------- cost model
def _backend_uses_costs(backend: ExecutionBackend, n_candidates: int) -> bool:
    """Whether estimating candidate costs for this level is worth anything.

    Estimates matter only to a cost-balancing backend (``wants_costs``) that
    will actually shard the batch (``would_shard``); for every other
    combination — the serial backend, a backend class that sets
    ``wants_costs = False``, or a level too small to split — the estimates
    would be discarded, so the miner skips the estimation pass entirely.
    """
    if not getattr(backend, "wants_costs", False):
        return False
    would_shard = getattr(backend, "would_shard", None)
    return would_shard is None or would_shard(n_candidates)


def _estimate_pair_costs(
    graph: HierarchicalPatternGraph,
    candidates: list[Candidate],
    config: MiningConfig,
    min_count: int,
) -> list[float]:
    """Per-candidate evaluation cost estimates for level 2.

    The dominant cost of a surviving pair is relation classification over the
    chronologically ordered instance pairs in shared sequences, so the
    estimate is the product of the two instance counts summed over the shared
    sequences (the self-pair analogue: instances choose two) — computed as a
    dot product of the events' cached per-sequence instance-count vectors
    (:meth:`EventNode.instance_counts`) over the shared sequence ids, instead
    of a Python loop per sequence.  Pairs the Apriori checks of Lemmas 2–3
    would discard stop after one bitmap intersection, so they are estimated
    at unit cost.

    Pairs that Lemma 2 *certainly* prunes — the smaller event support is
    already below the threshold, an upper bound on the joint support — are
    recognised without any bitmap work, so on prune-dominated workloads the
    estimation pre-pass does not replicate the level's intersections
    serially.  For the remaining pairs the estimator repeats the bitmap AND
    the worker will perform — one word-wise intersection + popcount,
    negligible next to the instance-pair classification it predicts;
    shipping the intersections to the workers instead would grow the very
    payload the engine tries to keep small.
    """
    uses_apriori = config.pruning.uses_apriori
    n_sequences = graph.n_sequences
    costs: list[float] = []
    for event_a, event_b in candidates:
        node_a = graph.level1[event_a]
        node_b = graph.level1[event_b]
        if uses_apriori and min(node_a.support, node_b.support) < min_count:
            costs.append(1.0)
            continue
        joint = node_a.bitmap & node_b.bitmap
        joint_support = joint.count()
        if joint_support == 0 or (
            apriori_pair_prune(
                joint_support, node_a.support, node_b.support, min_count, config
            )
            is not None
        ):
            costs.append(1.0)
            continue
        shared = np.fromiter(joint.indices(), dtype=np.intp, count=joint_support)
        counts_a = node_a.instance_counts(n_sequences)[shared]
        if event_a == event_b:
            pair_count = float(counts_a @ (counts_a - 1.0)) / 2.0
        else:
            pair_count = float(
                counts_a @ node_b.instance_counts(n_sequences)[shared]
            )
        costs.append(max(pair_count, 1.0))
    return costs


def _estimate_combination_costs(
    graph: HierarchicalPatternGraph, candidates: list[Candidate], level: int
) -> list[float]:
    """Per-candidate evaluation cost estimates for level ``k >= 3``.

    Evaluating a combination extends every stored occurrence of every parent
    ``(k-1)``-node with the instances of the remaining event, so the estimate
    sums, over each (parent, new event) decomposition, the per-sequence
    product of parent occurrence counts and new-event instance counts.
    Summarised entries (final-level or dead-end nodes of a previous parallel
    run) contribute their per-sequence occurrence *counts* instead.
    """
    parents = graph.levels.get(level - 1, {})
    occurrence_counts: dict[tuple[EventKey, ...], dict[int, int]] = {}
    for parent_key, parent in parents.items():
        counts: dict[int, int] = {}
        for entry in parent.patterns.values():
            # Summarised entries contribute their stored counts, columnar
            # ones their per-sequence matrix row counts — no materialising.
            for sequence_id, n_occurrences in (
                entry.occurrence_counts_by_sequence().items()
            ):
                counts[sequence_id] = counts.get(sequence_id, 0) + n_occurrences
        occurrence_counts[parent_key] = counts
    costs: list[float] = []
    for candidate in candidates:
        cost = 0
        for new_event in candidate:
            parent_key = tuple(e for e in candidate if e != new_event)
            parent_counts = occurrence_counts.get(parent_key)
            if not parent_counts:
                continue
            instances = graph.level1[new_event].instances_by_sequence
            for sequence_id, n_occurrences in parent_counts.items():
                n_instances = len(instances.get(sequence_id, ()))
                if n_instances:
                    cost += n_occurrences * n_instances
        costs.append(float(max(cost, 1)))
    return costs


class MiningSession:
    """Explicit, appendable state of one level-wise HTPGM mining run.

    Parameters
    ----------
    config:
        Thresholds, relation buffers, pruning switches and engine selection.
    event_filter, pair_filter:
        Optional predicates used by A-HTPGM to exclude uncorrelated series;
        ``None`` (the default) keeps everything, which is the exact
        algorithm.  A session carrying filters cannot be serialised
        (arbitrary callables do not round-trip through a file).
    retain_occurrences:
        When True (the default) every pattern's occurrence evidence is kept
        in full — the worker-side summary optimisations are disabled —
        because :meth:`append` may need to extend any of it later.  The
        throwaway sessions created by :meth:`HTPGM.mine` pass False and keep
        the summary optimisations; such sessions cannot be appended to.

    Attributes
    ----------
    events:
        Level-1 state of *every* event passing ``event_filter``, frequent or
        not: bitmap over sequence ids plus per-sequence instance lists.
        Infrequent events must be retained because an append can push them
        over the (also growing) support threshold.  Empty until
        :meth:`mine`; only populated when ``retain_occurrences`` is True.
    graph:
        The Hierarchical Pattern Graph of the current state (level-1 nodes
        of the frequent events plus all surviving combination nodes).
    statistics:
        Work counters of the most recent operation (:meth:`mine` or
        :meth:`append`).  Append statistics count only the incremental work;
        ``events_scanned``, ``frequent_events`` and ``patterns_found``
        always describe the merged state.
    """

    def __init__(
        self,
        config: MiningConfig | None = None,
        event_filter: EventFilter | None = None,
        pair_filter: PairFilter | None = None,
        retain_occurrences: bool = True,
    ) -> None:
        self.config = config or MiningConfig()
        self.event_filter = event_filter
        self.pair_filter = pair_filter
        self.retain_occurrences = retain_occurrences
        self.n_sequences: int = 0
        self.events: dict[EventKey, EventNode] = {}
        self.graph: HierarchicalPatternGraph | None = None
        self.statistics: MiningStatistics | None = None
        self.appends: int = 0
        #: Progress marker of an interrupted checkpointed mine():
        #: ``{"next_level": k}`` when level ``k`` still has to run, ``None``
        #: when the state is complete.  Persisted by
        #: :func:`repro.io.session_io.write_session` so :meth:`resume` knows
        #: where to pick up.
        self._mining_state: dict | None = None
        # Level 2 is immutable once a run finished, so its pattern-identity
        # snapshot (used by the transitivity checks at every level >= 3) is
        # built once per run and reused.
        self._pair_patterns: dict[
            tuple[EventKey, EventKey], frozenset[TemporalPattern]
        ] | None = None

    # ------------------------------------------------------------------ properties
    @property
    def mined(self) -> bool:
        """True once :meth:`mine` has populated the session state."""
        return self.graph is not None

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"MiningSession(n_sequences={self.n_sequences}, "
            f"mined={self.mined}, appends={self.appends}, "
            f"retain_occurrences={self.retain_occurrences})"
        )

    # ------------------------------------------------------------------ public API
    def mine(
        self, database: SequenceDatabase, backend: ExecutionBackend | None = None
    ) -> MiningResult:
        """Mine all frequent temporal patterns, keeping the level state.

        This is an :meth:`append` of ``database`` onto the empty session,
        except that ``database`` is mined as given: its sequence ids are
        already ``0..n-1``, so its sequences are neither copied nor
        re-indexed.

        ``backend`` evaluates the level candidates; ``None`` resolves one
        from ``config.engine`` for this call and closes it afterwards, an
        injected backend stays owned by the caller.

        With ``config.checkpoint_path`` set the session snapshots itself to
        that file (atomically, via the ordinary session writer) after every
        completed level; an interrupted run restarts from the last finished
        level via :meth:`resume` and produces the identical final result.
        """
        if self.graph is not None:
            raise MiningError(
                "session already holds mined state; use append() for new "
                "sequences or create a fresh session"
            )
        if len(database) == 0:
            raise MiningError("cannot mine an empty sequence database")
        if self.config.checkpoint_path is not None:
            # Checkpoints reuse write_session, so they inherit its contract.
            if not self.retain_occurrences:
                raise MiningError(
                    "checkpointing requires a session with retained "
                    "occurrences (retain_occurrences=True)"
                )
            if self.event_filter is not None or self.pair_filter is not None:
                raise MiningError(
                    "sessions carrying event/pair filters cannot be "
                    "checkpointed; filters are arbitrary callables"
                )
        return self._extend(database, backend, resumable=True)

    def append(
        self,
        new_sequences: SequenceDatabase | Iterable[TemporalSequence],
        backend: ExecutionBackend | None = None,
    ) -> MiningResult:
        """Fold new sequences into the mined state incrementally.

        The new sequences are re-indexed to follow the existing ones (their
        incoming sequence ids are ignored), exactly as if they had been the
        last rows of the original database.  Only candidates whose support
        sets can change — all events co-occurring in a delta sequence, or a
        newly frequent event involved — are re-evaluated (through
        ``backend``, so appends parallelise like full mines); every other
        node is reused after a constant-time threshold re-check.  An append
        never writes a checkpoint.

        Invariant: the returned result is identical — patterns, supports,
        confidences, order — to mining the concatenated database from
        scratch.
        """
        if self.graph is None:
            raise MiningError("append() needs mined state; call mine() first")
        if not self.retain_occurrences:
            raise MiningError(
                "this session was mined without retained occurrences "
                "(retain_occurrences=False) and cannot be appended to; "
                "mine a MiningSession(retain_occurrences=True) instead"
            )
        delta = SequenceDatabase(
            [
                TemporalSequence(self.n_sequences + offset, list(sequence.instances))
                for offset, sequence in enumerate(new_sequences)
            ]
        )
        result = self._extend(delta, backend, resumable=False)
        self.appends += 1
        return result

    def resume(
        self, database: SequenceDatabase, backend: ExecutionBackend | None = None
    ) -> MiningResult:
        """Continue an interrupted checkpointed :meth:`mine` run.

        The session must have been loaded from a checkpoint file written by
        an interrupted run (``read_session`` restores the progress marker).
        Mining restarts at the first level the checkpoint had not completed —
        earlier levels are reused as-is, so resume + remainder produces the
        identical result a never-interrupted run would have.  ``database``
        must be the same sequence database the interrupted run was mining
        (level 1 is *not* re-scanned; the checkpoint already holds it, and
        the size check below is the cheap guard against handing in a
        different database).

        On a checkpoint whose run actually completed this is a no-op that
        rebuilds and returns the final result.
        """
        if self.graph is None:
            raise MiningError(
                "resume() needs checkpointed state; call mine() first"
            )
        state = self._mining_state
        if state is None:
            return self.result()
        if len(database) != self.n_sequences:
            raise MiningError(
                f"resume database holds {len(database)} sequences but the "
                f"checkpoint was mining {self.n_sequences}; resume() needs "
                "the exact database of the interrupted run"
            )

        started = time.perf_counter()
        backend, owns_backend = self._resolve_backend(backend)
        try:
            # The levels still to run have no stored state: every candidate
            # is evaluated, exactly as in the interrupted mine().
            self._run_levels(
                self.graph, self.statistics, backend, int(state["next_level"]),
                old_graph=None, delta_ids={}, resumable=True,
            )
        finally:
            if owns_backend:
                backend.close()

        runtime = time.perf_counter() - started
        self._write_checkpoint(None)
        return self._build_result(self.graph, self.statistics, runtime, backend.name)

    def result(self) -> MiningResult:
        """Rebuild the :class:`MiningResult` of completed mined state.

        Used after loading a finished run's checkpoint; the reported runtime
        is zero because no mining happened in this process.
        """
        if self.graph is None or self.statistics is None:
            raise MiningError("no mined state to build a result from")
        if self._mining_state is not None:
            raise MiningError(
                "the run behind this checkpoint did not complete; "
                "call resume() to finish it"
            )
        return self._build_result(
            self.graph, self.statistics, 0.0, self.config.engine
        )

    def _write_checkpoint(self, next_level: int | None) -> None:
        """Snapshot the session after a level boundary (no-op when disabled).

        ``next_level`` is the first level the snapshot has *not* completed;
        ``None`` marks the state complete.  The write is atomic
        (:func:`~repro.io.session_io.write_session`), so a crash mid-write
        leaves the previous checkpoint intact.
        """
        if self.config.checkpoint_path is None:
            return
        self._mining_state = (
            None if next_level is None else {"next_level": next_level}
        )
        from ..io.session_io import write_session

        write_session(self, self.config.checkpoint_path)

    # ------------------------------------------------------------------ the level loop
    def _extend(
        self,
        delta: SequenceDatabase,
        backend: ExecutionBackend | None,
        resumable: bool,
    ) -> MiningResult:
        """Fold ``delta`` into the session state: level 1, then every level.

        ``delta``'s sequence ids must continue the session's
        (``n_sequences, n_sequences + 1, ...``).  The new state is published
        right after level 1, so every checkpoint can go through the ordinary
        session writer; any failure restores the state from before the call,
        so a retry starts clean (the on-disk checkpoint survives for
        :meth:`resume`).  ``resumable`` is True for :meth:`mine`, which
        checkpoints, and False for :meth:`append`, which never does.
        """
        started = time.perf_counter()
        previous = (
            self.n_sequences, self.events, self.graph, self.statistics,
            self._mining_state,
        )
        old_graph = self.graph
        n_sequences = self.n_sequences + len(delta)
        graph = HierarchicalPatternGraph(n_sequences=n_sequences)
        stats = MiningStatistics(n_sequences=n_sequences)

        backend, owns_backend = self._resolve_backend(backend)
        try:
            events, delta_ids = self._merge_level1(delta, graph, stats)
            self.n_sequences = n_sequences
            self.events = events
            self.graph = graph
            self.statistics = stats
            if resumable:
                self._write_checkpoint(2)
            self._run_levels(
                graph, stats, backend, 2, old_graph, delta_ids, resumable
            )
        except BaseException:
            (
                self.n_sequences, self.events, self.graph, self.statistics,
                self._mining_state,
            ) = previous
            raise
        finally:
            if owns_backend:
                backend.close()

        runtime = time.perf_counter() - started
        if resumable:
            self._write_checkpoint(None)
        return self._build_result(graph, stats, runtime, backend.name)

    def _run_levels(
        self,
        graph: HierarchicalPatternGraph,
        stats: MiningStatistics,
        backend: ExecutionBackend,
        level: int,
        old_graph: HierarchicalPatternGraph | None,
        delta_ids: dict[EventKey, Set[int]],
        resumable: bool,
    ) -> None:
        """Alg. 1 lines 5–20: run the levels from ``level`` (>= 2) upwards.

        ``old_graph`` is the state the levels merge with, ``None`` when
        there is none (:meth:`mine`, :meth:`resume`); then every frequent
        event is newly frequent and every candidate is evaluated.
        ``resumable`` runs (:meth:`mine`, :meth:`resume`) arm the
        coordinator-exit fault hook before each level and checkpoint after
        each level that produced nodes; :meth:`append` does neither.  The
        loop stops at ``max_pattern_size`` or after a level that produced
        no node, since nothing can grow from it.
        """
        config = self.config
        min_count = config.support_count(graph.n_sequences)
        old_levels = old_graph.levels if old_graph is not None else {}
        newly_frequent = {
            key
            for key in graph.level1
            if old_graph is None or key not in old_graph.level1
        }
        plan = faults.active_plan() if resumable else None
        self._pair_patterns = None
        max_size = config.max_pattern_size
        while (max_size is None or level <= max_size) and (
            level == 2 or graph.nodes_at(level - 1)
        ):
            faults.coordinator_exit(plan, level)
            if not self._merge_level(
                graph, stats, min_count, level, backend, old_levels, delta_ids,
                newly_frequent,
            ):
                break
            if resumable:
                self._write_checkpoint(level + 1)
            level += 1

    # ------------------------------------------------------------------ level 1
    def _merge_level1(
        self,
        delta: SequenceDatabase,
        graph: HierarchicalPatternGraph,
        stats: MiningStatistics,
    ) -> tuple[dict[EventKey, EventNode], dict[EventKey, Set[int]]]:
        """Alg. 1 lines 1–4: merge a scan of ``delta`` into the level-1 state.

        Every event of the stored all-event state (empty before the first
        mine) gets its bitmap grown to ``graph.n_sequences`` and its
        instance lists extended with the delta sequences; delta events
        passing ``event_filter`` that the state lacks are added.  Events
        meeting the support threshold become ``graph``'s level 1, with
        their columnar views prebuilt for the delta sequences.

        Returns the all-event state to keep (empty for a throwaway session,
        which never appends) plus, for each frequent event occurring in the
        delta, the delta sequence ids containing it — the raw material of
        the *touched candidate* test.
        """
        level_start = time.perf_counter()
        n_sequences = graph.n_sequences
        delta_events = collect_events(delta)
        merged: dict[EventKey, EventNode] = {}
        for key, node in self.events.items():
            bitmap = node.bitmap.resized(n_sequences)
            instances = node.instances_by_sequence
            added = delta_events.get(key)
            if added is not None:
                instances = {**instances, **added.instances_by_sequence}
                for sequence_id in added.instances_by_sequence:
                    bitmap.set(sequence_id)
            merged_node = EventNode(
                event=key, bitmap=bitmap, instances_by_sequence=instances
            )
            # Appends only add new sequence ids, so the stored columnar views
            # stay valid; the merged node takes them over instead of
            # rebuilding every sequence's arrays from scratch.
            merged_node.adopt_sequence_arrays(node)
            merged[key] = merged_node
        for key, added in delta_events.items():
            if key in merged:
                continue
            if self.event_filter is not None and not self.event_filter(key):
                continue
            merged[key] = EventNode(
                event=key,
                bitmap=Bitmap.from_indices(
                    n_sequences, added.instances_by_sequence.keys()
                ),
                instances_by_sequence=added.instances_by_sequence,
            )

        min_count = self.config.support_count(n_sequences)
        delta_ids: dict[EventKey, Set[int]] = {}
        for key, node in merged.items():
            if node.support < min_count:
                continue
            graph.add_event_node(node)
            added = delta_events.get(key)
            if added is not None:
                delta_ids[key] = added.instances_by_sequence.keys()
                if self.config.vectorized:
                    _prebuild_columnar_views(node, delta_ids[key])
        stats.events_scanned = len(merged)
        stats.frequent_events = len(graph.level1)
        stats.patterns_found[1] = len(graph.level1)
        stats.level_seconds[1] = time.perf_counter() - level_start
        return (merged if self.retain_occurrences else {}), delta_ids

    # ------------------------------------------------------------------ candidate generation
    def _generate_pair_candidates(
        self, graph: HierarchicalPatternGraph
    ) -> list[Candidate]:
        """Level-2 candidates: event pairs (and self pairs) passing the filter."""
        config = self.config
        frequent = graph.frequent_events()
        candidate_pairs: list[Candidate] = list(combinations(frequent, 2))
        if config.allow_self_relations:
            candidate_pairs.extend((event, event) for event in frequent)
        if self.pair_filter is not None:
            candidate_pairs = [
                pair for pair in candidate_pairs if self.pair_filter(*pair)
            ]
        return candidate_pairs

    def _generate_combination_candidates(
        self,
        graph: HierarchicalPatternGraph,
        stats: MiningStatistics,
        level: int,
    ) -> list[Candidate]:
        """Level-k candidates grown from the ``(k-1)`` nodes, in sorted order."""
        config = self.config
        prev_nodes = graph.nodes_at(level - 1)
        frequent = graph.frequent_events()

        if config.pruning.uses_transitivity:
            allowed_events = {event for node in prev_nodes for event in node.events}
            extension_events = [e for e in frequent if e in allowed_events]
            stats.bump(
                stats.pruned_transitivity_events,
                level,
                len(frequent) - len(extension_events),
            )
        else:
            extension_events = list(frequent)

        # Candidate combinations: (k-1)-node events plus one new single event.
        # Self-relation nodes (the same event paired with itself) are only kept
        # for their own 2-event patterns and are not grown further, so every
        # combination of three or more events consists of distinct events.
        candidates: set[Candidate] = set()
        for node in prev_nodes:
            node_events = set(node.events)
            if len(node_events) < len(node.events):
                continue
            for event in extension_events:
                if event in node_events:
                    continue
                candidates.add(tuple(sorted((*node.events, event))))
        return sorted(candidates)

    # ------------------------------------------------------------------ levels k >= 2
    def _merge_level(
        self,
        graph: HierarchicalPatternGraph,
        stats: MiningStatistics,
        min_count: int,
        level: int,
        backend: ExecutionBackend,
        old_levels: dict[int, dict[tuple[EventKey, ...], CombinationNode]],
        delta_ids: dict[EventKey, Set[int]],
        newly_frequent: set[EventKey],
    ) -> bool:
        """Build one level of the new state: evaluate touched, reuse the rest.

        Candidates are generated from the merged ``(k-1)`` state (which
        equals the from-scratch one by induction), then partitioned:

        * *touched* candidates — support set able to change — go through the
          backend for full evaluation, with cost estimates when the backend
          would use them;
        * every other candidate either has a stored node in ``old_levels``
          whose patterns are re-checked against the grown support threshold
          and event supports (supports and confidences of untouched patterns
          are unchanged, so the check is constant-time per pattern), or
          provably mined nothing before and would mine nothing now.

        Without stored state every candidate is touched.  The merge walks
        the canonical candidate order, so node order — and the final result
        — is byte-identical to a from-scratch run.  Returns whether the
        level produced any node.

        ``level_seconds`` is assembled as *evaluation time + coordinator
        overhead*: the backend reports the evaluation wall-clock (for parallel
        backends: the slowest shard, per
        :meth:`MiningStatistics.merge_shard`), and the time this process spent
        generating candidates, building the context and attaching the
        resulting nodes is added on top.  Summing per-shard times instead
        would overstate the level cost by up to the worker count.
        """
        level_start = time.perf_counter()
        if level == 2:
            generated = self._generate_pair_candidates(graph)
        else:
            generated = self._generate_combination_candidates(graph, stats, level)
        is_touched = [
            _support_can_change(candidate, delta_ids, newly_frequent)
            for candidate in generated
        ]
        touched = [c for c, flag in zip(generated, is_touched) if flag]
        costs = None
        if _backend_uses_costs(backend, len(touched)):
            if level == 2:
                costs = _estimate_pair_costs(graph, touched, self.config, min_count)
            else:
                costs = _estimate_combination_costs(graph, touched, level)
        context = self._level_context(graph, level, min_count, touched)
        backend_start = time.perf_counter()
        outcome = backend.run(context, touched, costs)
        backend_elapsed = time.perf_counter() - backend_start
        stats.absorb_counters(outcome.stats)

        evaluated = {node.events: node for node in outcome.nodes}
        old_nodes = old_levels.get(level, {})
        produced = False
        for candidate, flag in zip(generated, is_touched):
            key = tuple(sorted(candidate))
            if flag:
                node = evaluated.get(key)
            else:
                node = self._refilter_node(old_nodes.get(key), graph, min_count)
            if node is not None:
                graph.add_combination_node(node)
                # Entries returned by worker processes carry only their index
                # matrices; re-attach the coordinator's instance lists so the
                # lazy tuple views (and the next level's scalar path) resolve.
                for entry in node.patterns.values():
                    entry.bind_sources(graph.level1)
                produced = True

        # ``patterns_found`` describes the merged state (reused + evaluated),
        # not just the work the counters above recorded.
        stats.patterns_found.pop(level, None)
        stats.bump(
            stats.patterns_found,
            level,
            sum(len(node.patterns) for node in graph.nodes_at(level)),
        )
        evaluation_seconds = outcome.stats.level_seconds.get(level, 0.0)
        overhead = max(0.0, (time.perf_counter() - level_start) - backend_elapsed)
        stats.level_seconds[level] = evaluation_seconds + overhead
        return produced

    def _refilter_node(
        self,
        node: CombinationNode | None,
        graph: HierarchicalPatternGraph,
        min_count: int,
    ) -> CombinationNode | None:
        """Re-check an untouched node's patterns against the new thresholds.

        Untouched patterns keep their exact support (no delta sequence
        contains all their events) and their occurrence evidence, but the
        absolute support threshold has grown and event supports may have
        grown (raising confidence denominators), so each stored pattern is
        re-admitted or dropped; a node losing every pattern disappears, just
        as a from-scratch run would never have created it.
        """
        if node is None:
            return None
        config = self.config
        kept = {}
        for pattern, entry in node.patterns.items():
            support = entry.support
            if support < min_count:
                continue
            max_event_support = max(
                graph.event_support(event) for event in pattern.events
            )
            if max_event_support == 0:
                continue
            if support / max_event_support < config.min_confidence:
                continue
            kept[pattern] = entry
        if not kept:
            return None
        return CombinationNode(
            events=node.events,
            bitmap=node.bitmap.resized(graph.n_sequences),
            patterns=kept,
        )

    # ------------------------------------------------------------------ shared helpers
    def _resolve_backend(
        self, backend: ExecutionBackend | None
    ) -> tuple[ExecutionBackend, bool]:
        """The backend to use plus whether this call owns (and must close) it."""
        if backend is not None:
            return backend, False
        return backend_from_config(self.config), True

    def _level_context(
        self,
        graph: HierarchicalPatternGraph,
        level: int,
        min_count: int,
        candidates: list[Candidate],
    ) -> LevelContext:
        """Build the worker context for one level's candidate batch.

        A retaining session never allows the workers to summarise occurrence
        lists (neither at a known-final level nor at dead-end nodes): a
        future append may extend any stored occurrence.

        Memory governance needs nothing extra here: the process backend
        stamps the per-worker budget share onto the context itself, and the
        checkpoint interplay is free by construction — an over-budget level
        is retried *inside* ``backend.run``, so :meth:`mine` only reaches
        its post-level ``_write_checkpoint`` once the level has fully
        recovered, and a level that exhausts every degradation step (split
        the shard, shrink the kernel chunks, evaluate in-process) raises
        out of ``backend.run`` with the previous level's checkpoint already
        durable on disk.
        """
        config = self.config
        final_level = (
            not self.retain_occurrences and config.max_pattern_size == level
        )
        pair_patterns: dict[tuple[EventKey, EventKey], frozenset[TemporalPattern]] = {}
        if level >= 3 and config.pruning.uses_transitivity:
            pair_patterns = self._pair_patterns_for(graph)
        return LevelContext(
            level=level,
            config=config,
            min_count=min_count,
            level1=_restrict_level1(graph, candidates),
            parents=dict(graph.levels.get(level - 1, {})) if level >= 3 else {},
            pair_patterns=pair_patterns,
            final_level=final_level,
            summarise_dead_ends=(
                not self.retain_occurrences
                and not final_level
                and level >= 3
                and config.pruning.uses_transitivity
            ),
        )

    def _pair_patterns_for(
        self, graph: HierarchicalPatternGraph
    ) -> dict[tuple[EventKey, EventKey], frozenset[TemporalPattern]]:
        """Pattern-identity snapshot of level 2, built once per run."""
        if self._pair_patterns is None:
            self._pair_patterns = {
                events: frozenset(node.patterns)
                for events, node in graph.levels.get(2, {}).items()
            }
        return self._pair_patterns

    def _build_result(
        self,
        graph: HierarchicalPatternGraph,
        stats: MiningStatistics,
        runtime: float,
        engine: str,
    ) -> MiningResult:
        """Collect every stored pattern into a :class:`MiningResult`."""
        mined = []
        n_sequences = graph.n_sequences
        for _level, _node, entry in graph.iter_pattern_entries():
            support = entry.support
            max_event_support = max(
                graph.event_support(event) for event in entry.pattern.events
            )
            # Every sequence supporting the pattern contains each of its
            # events, so support <= max_event_support and the ratio is
            # already in (0, 1] — no clamp needed.
            confidence = support / max_event_support if max_event_support else 0.0
            mined.append(
                MinedPattern(
                    pattern=entry.pattern,
                    measures=PatternMeasures(
                        support=support,
                        relative_support=support / n_sequences,
                        confidence=confidence,
                    ),
                )
            )
        mined.sort(key=lambda m: (m.size, -m.support, m.pattern.describe()))
        return MiningResult(
            patterns=mined,
            config=self.config,
            n_sequences=n_sequences,
            statistics=stats,
            runtime_seconds=runtime,
            algorithm="E-HTPGM",
            engine=engine,
        )


def _support_can_change(
    candidate: Candidate,
    delta_ids: dict[EventKey, Set[int]],
    newly_frequent: set[EventKey],
) -> bool:
    """Whether appending the delta can change this candidate's support set.

    A pattern over the candidate's events gains occurrences only inside delta
    sequences containing *all* of those events; a candidate involving a newly
    frequent event has no stored state at all (it was never generated) and
    may surface old-sequence patterns, so it must be evaluated in full either
    way.
    """
    if any(event in newly_frequent for event in candidate):
        return True
    shared: Set[int] | None = None
    for event in candidate:
        ids = delta_ids.get(event)
        if not ids:
            return False
        shared = ids if shared is None else shared & ids
        if not shared:
            return False
    return True

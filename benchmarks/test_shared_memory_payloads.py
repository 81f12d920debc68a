"""Zero-copy shared-memory shard payloads vs the pickle transports.

Two claims, each printed as a table:

* **per-batch transfer bytes** (structural, asserted unconditionally): with
  ``shared_memory=True`` the bytes actually crossing the executor pipe — the
  pickled :class:`~repro.core.shm.SharedPayload` / ``SharedOutcome`` wire
  messages, whose arrays live in a mapped block instead of the pickle
  stream — are a fraction of the plain pickles in both directions.  The
  request side additionally amortises: one block per batch replaces one
  payload pickle per shard.
* **end-to-end speedup** (timing, ``>= 1.3x``): on a dense retaining
  workload — where every worker ships full index matrices back — the
  shared-memory transport beats the plain process transport.  Timing claims
  need real parallel hardware; the assertion is gated on ``>= 4`` available
  workers and is retry-once-then-skip guarded like every timing claim here.
"""

from __future__ import annotations

import pickle

import pytest

from repro import MiningConfig, MiningSession, ProcessPoolBackend
from repro.core import shm
from repro.core.engine import available_workers
from repro.evaluation import format_table

from _bench_utils import (
    assert_min_speedup,
    benchmark_rounds,
    best_of,
    emit,
)
from test_columnar_store_speedup import dense_database

#: Minimum end-to-end speedup of the shared-memory transport over the plain
#: process transport on the dense retaining workload (acceptance criterion;
#: requires real parallelism, hence the worker gate).
MIN_SPEEDUP = 1.3
MIN_WORKERS = 4


CONFIG = MiningConfig(
    min_support=0.5,
    min_confidence=0.5,
    min_overlap=1.0,
    tmax=120.0,
    max_pattern_size=3,
)


def _mined_graph():
    """A retaining session's graph over the dense workload, caches built.

    Retaining sessions are the transport's worst case *and* target: workers
    may never summarise, so every surviving index matrix crosses back."""
    session = MiningSession(CONFIG)
    session.mine(dense_database())
    for node in session.graph.level1.values():
        node.build_sequence_arrays()
        node.instance_counts(session.n_sequences)
    return session.graph


def _request_payload(graph) -> dict:
    """A faithful stand-in for the per-level worker context: the level-1
    nodes (columnar caches included) plus the previous level's entries."""
    deepest = max(level for level, nodes in graph.levels.items() if nodes)
    return {
        "level1": dict(graph.level1),
        "parents": dict(graph.levels.get(deepest - 1, {})),
    }


def _response_payload(graph) -> list:
    """What a retaining shard ships back: full nodes with index matrices."""
    deepest = max(level for level, nodes in graph.levels.items() if nodes)
    return list(graph.nodes_at(deepest))


@pytest.mark.skipif(
    not shm.shared_memory_available(), reason="shared memory unavailable"
)
def test_shared_memory_cuts_per_batch_transfer_bytes():
    graph = _mined_graph()
    request = _request_payload(graph)
    response = _response_payload(graph)
    n_shards = 4

    # Request direction: per-shard plain pickle vs one block per batch plus
    # a tiny per-shard wire message.
    plain_request = len(pickle.dumps(request, protocol=pickle.HIGHEST_PROTOCOL))
    wire, store = shm.pack_request(request)
    try:
        shm_request_pipe = len(pickle.dumps(wire, protocol=pickle.HIGHEST_PROTOCOL))
        plain_request_batch = plain_request * n_shards
        shm_request_batch = shm_request_pipe * n_shards
    finally:
        store.unlink()

    # Response direction: plain result pickle vs the SharedOutcome wire
    # message (descriptor blob; matrices live in the response block).
    plain_response = len(pickle.dumps(response, protocol=pickle.HIGHEST_PROTOCOL))
    outcome = shm.pack_shared(response, shm.generate_block_name())
    assert isinstance(outcome, shm.SharedOutcome)
    restored = shm.load_shared(outcome)  # also unlinks the block
    shm_response = len(pickle.dumps(outcome, protocol=pickle.HIGHEST_PROTOCOL))
    assert len(restored) == len(response)

    # The transport's reason to exist: pipe bytes drop in both directions.
    assert shm_request_batch < plain_request_batch
    assert shm_response < plain_response

    request_cut = plain_request_batch / max(shm_request_batch, 1)
    response_cut = plain_response / max(shm_response, 1)
    emit(
        format_table(
            ["direction", "plain pickle (B)", "shared memory (B)", "cut"],
            [
                [
                    f"request x{n_shards} shards",
                    f"{plain_request_batch}",
                    f"{shm_request_batch}",
                    f"{request_cut:.1f}x",
                ],
                [
                    "response (per shard)",
                    f"{plain_response}",
                    f"{shm_response}",
                    f"{response_cut:.1f}x",
                ],
            ],
            title="Per-batch executor-pipe bytes: pickle vs shared-memory transport",
        )
    )


@pytest.mark.skipif(
    not shm.shared_memory_available(), reason="shared memory unavailable"
)
def test_shared_memory_end_to_end_speedup(benchmark):
    if available_workers() < MIN_WORKERS:
        pytest.skip(
            f"end-to-end shared-memory speedup needs >= {MIN_WORKERS} workers, "
            f"host has {available_workers()}"
        )
    database = dense_database()

    def mine(shared: bool):
        with ProcessPoolBackend(
            n_workers=MIN_WORKERS,
            min_candidates_per_worker=1,
            shared_memory=shared,
        ) as backend:
            session = MiningSession(CONFIG)
            result = session.mine(database, backend=backend)
        return result

    def run():
        shared_seconds, shared_result = best_of(2, lambda: mine(True))
        plain_seconds, plain_result = best_of(2, lambda: mine(False))
        return shared_seconds, shared_result, plain_seconds, plain_result

    next_round = benchmark_rounds(benchmark, run, label="speedup")

    def measure():
        (shared_seconds, shared_result, plain_seconds, plain_result), label = (
            next_round()
        )
        mined = lambda result: [
            (m.pattern.events, m.pattern.relations, m.support, m.confidence)
            for m in result
        ]
        # Parity is unconditional: the transport must never change the answer.
        assert mined(shared_result) == mined(plain_result)
        speedup = plain_seconds / shared_seconds if shared_seconds else float("inf")
        emit(
            format_table(
                ["measurement", "value", "detail"],
                [
                    ["plain process (s)", f"{plain_seconds:.3f}", ""],
                    ["shared memory (s)", f"{shared_seconds:.3f}", ""],
                    [label, f"{speedup:.2f}x", f"(want >= {MIN_SPEEDUP}x)"],
                ],
                title=(
                    f"Shared-memory transport end-to-end: {len(database)} "
                    f"sequences, {MIN_WORKERS} workers, retaining session"
                ),
            )
        )
        return speedup, None

    assert_min_speedup(
        measure,
        MIN_SPEEDUP,
        "shared-memory transport vs plain process transport on the dense workload",
    )

"""Figures 10 & 11 — scalability in the number of sequences (data size).

The paper varies the fraction of sequences (20-100%) on NIST (Fig. 10) and
Smart City (Fig. 11) and shows that every method's runtime grows with the data
size while the ranking A-HTPGM <= E-HTPGM < baselines is preserved, with the
speedup widening on the largest configuration.  The benchmark reproduces the
curve at a reduced scale.
"""

from __future__ import annotations

import time

import pytest

from repro.evaluation import ExperimentRunner, format_series

from _bench_utils import assert_min_speedup, benchmark_rounds, emit

FRACTIONS = (0.25, 0.5, 0.75, 1.0)
METHODS = ("A-HTPGM", "E-HTPGM", "TPMiner", "IEMiner", "H-DFS")
BASELINES = ("TPMiner", "IEMiner", "H-DFS")
#: At the largest size E-HTPGM may take at most this multiple of the fastest
#: baseline's runtime.
MAX_SLOWDOWN = 1.1
A_DENSITY = 0.6


@pytest.mark.parametrize(
    "figure,dataset_fixture,config_fixture",
    [
        ("Fig. 10", "nist_bench", "energy_config"),
        ("Fig. 11", "smartcity_bench", "smartcity_config"),
    ],
)
def test_scalability_varying_data_size(figure, dataset_fixture, config_fixture, benchmark, request):
    bench = request.getfixturevalue(dataset_fixture)
    config = request.getfixturevalue(config_fixture)

    def time_method(runner, method):
        """Best of two runs: absorbs warm-up and GC noise at the ~0.1s scale."""
        timings = []
        for _ in range(2):
            start = time.perf_counter()
            if method == "A-HTPGM":
                runner.run(method, config, graph_density=A_DENSITY)
            else:
                runner.run(method, config)
            timings.append(time.perf_counter() - start)
        return min(timings)

    def run():
        curves = {method: [] for method in METHODS}
        for fraction in FRACTIONS:
            database = bench.sequence_db.subset(fraction)
            runner = ExperimentRunner(sequence_db=database, symbolic_db=bench.symbolic_db)
            for method in METHODS:
                curves[method].append(round(time_method(runner, method), 3))
        return curves

    next_round = benchmark_rounds(benchmark, run, label="runtime (s)")

    def measure():
        curves, label = next_round()
        emit(
            format_series(
                "% of sequences",
                [f"{f:.0%}" for f in FRACTIONS],
                curves,
                title=f"{figure} ({bench.name}): {label} vs data size",
            )
        )
        exact = curves["E-HTPGM"][-1]
        allowed = MAX_SLOWDOWN * min(curves[m][-1] for m in BASELINES)
        return (allowed / exact if exact else float("inf")), curves

    # At the largest size the exact miner still beats the best baseline, within
    # MAX_SLOWDOWN.  The runs take ~0.15 s, so a loaded host gets one
    # re-measurement and then a skip, not a failure.
    _, curves = assert_min_speedup(
        measure,
        1.0,
        f"{figure}: {MAX_SLOWDOWN} x fastest baseline / E-HTPGM at 100%",
    )
    # The slowest baseline's runtime grows from the smallest to the largest
    # setting.
    final = {method: curves[method][-1] for method in METHODS}
    slowest = max(BASELINES, key=lambda m: final[m])
    assert curves[slowest][-1] >= curves[slowest][0]

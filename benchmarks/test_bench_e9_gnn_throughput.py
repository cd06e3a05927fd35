"""E9: vectorized batched-graph engine vs the per-graph oracle.

The acceptance benchmark of the batched execution engine: at the trainer's
default mini-batch size (16 graphs) batched training must be at least 3x
faster than the per-graph loop it replaced, batched inference at least 3x
faster than per-graph ``predict_proba``, and the two inference paths must
agree on every prediction over the E5-style EVM + WASM corpora.

Throughput numbers are also written to ``benchmarks/BENCH_E9.json`` for CI
and tooling.
"""

from benchmarks.conftest import record_json, record_result, run_once
from repro.evaluation import E9Config, run_e9_gnn_throughput


def test_bench_e9_gnn_throughput(benchmark):
    # extra timing pairs de-noise the wall-clock ratios on busy CI runners;
    # odd pair counts make each gated ratio one pair's ratio
    config = E9Config(batch_size=16, seed=0, train_repeats=5,
                      inference_repeats=7)
    result = run_once(benchmark, run_e9_gnn_throughput, config)
    record_result(result)
    record_json("E9", result)

    # the batched engine must never change a verdict relative to the oracle
    assert result.summary["prediction_mismatches"] == 0
    # acceptance: >= 3x training throughput at batch_size=16
    assert result.summary["train_speedup"] >= 3.0
    # acceptance: >= 3x inference throughput over the E5 corpora
    assert result.summary["inference_speedup"] >= 3.0
    # probability noise stays at reduction-order level, far below thresholds
    assert result.summary["max_probability_delta"] < 1e-9

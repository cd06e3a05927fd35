"""E11: continuous watch ingest -- warm re-polls must be inference-free.

The registry acceptance experiment, on the ingest service's ``poll``
backend: a cold backfill of a 240-contract corpus pays full lowering +
inference once; a warm cycle over the unchanged corpus must be at least
20x faster and perform **zero** GNN inference calls (the stat
short-circuit never even re-reads the files), and the backfill of a
restarted service with every mtime bumped -- the stat index defeated, so
every file is re-read and re-hashed -- must answer everything from the
registry, also inference-free.  Every registry verdict is compared
byte-for-byte against a direct ``scan_directory`` oracle.

Unlike the E10 scaling floor this contract is not hardware-bound: skipping
work is free on any machine, so all gates here are unconditional.
"""

from benchmarks.conftest import record_json, record_result, run_once
from repro.evaluation import E11Config, run_e11_watch_ingest


def test_bench_e11_watch_ingest(benchmark):
    config = E11Config(num_samples=240, epochs=6, seed=0)
    result = run_once(benchmark, run_e11_watch_ingest, config)
    record_result(result)
    record_json("E11", result)

    # parity: registry verdicts == scan_directory verdicts, byte for byte
    assert result.summary["verdict_mismatches"] == 0
    assert result.summary["registry_rows"] == config.num_samples
    # the inference-free contract: the warm cycle and the restart backfill
    # never touch the model (zero batched inference calls, zero scanned)
    assert result.summary["warm_inference_calls"] == 0
    assert result.summary["restart_inference_calls"] == 0
    cold_row, warm_row, restart_row = result.rows
    assert cold_row["scanned"] == config.num_samples
    assert warm_row["scanned"] == 0 and warm_row["registry_hits"] == 0
    # the restart backfill re-hashed everything and answered from the
    # registry
    assert restart_row["scanned"] == 0
    assert restart_row["registry_hits"] == config.num_samples
    # acceptance: a warm re-poll of an unchanged corpus is >= 20x faster
    # than the cold ingest
    assert result.summary["warm_speedup"] >= 20.0, (
        f"warm watch poll only {result.summary['warm_speedup']:.1f}x faster "
        f"than cold ingest (contract: >= 20x)")

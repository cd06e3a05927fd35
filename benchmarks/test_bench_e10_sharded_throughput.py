"""E10: multi-process sharded scan engine -- throughput scaling + parity.

The sharding acceptance experiment: on hardware with at least 4 usable
cores a cold scan across 4 shard processes must be at least 2x faster than
the 1-shard pool, and every sharded verdict -- cold, warm, any shard count
-- must be bit-identical to the single-process oracle.

The speedup side of the claim is physically hardware-bound: CPU-bound
lowering cannot parallelise on a 1-core container no matter what the
software does.  The floor therefore scales with the cores this process may
actually use (affinity-aware); the parity side is asserted unconditionally,
because correctness never depends on the machine.

``sharded_speedup`` is the median per-pair ratio over ``E10Config.repeats``
interleaved pairs of fresh 1-shard and 4-shard pools (alternating which
runs first, after one untimed pool of each size), so one slow pool on a
busy host cannot sink the gate; the floors and the committed baseline are
unchanged.
"""

from benchmarks.conftest import record_json, record_result, run_once
from repro.evaluation import E10Config, run_e10_sharded_throughput
from repro.evaluation.experiments import available_cores


def speedup_floor(cores: int, shards: int) -> float:
    """The cold-scan speedup the pool must deliver on this hardware.

    >= shards cores: the full 2x acceptance floor.  2-3 cores: some real
    parallelism must show up (1.2x).  1 core: parallel speedup is
    impossible, so only bound the sharding overhead -- the pool must stay
    within ~3x of the 1-shard runtime (IPC + partitioning cost).
    """
    if cores >= shards:
        return 2.0
    if cores >= 2:
        return 1.2
    return 1.0 / 3.0


def test_bench_e10_sharded_throughput(benchmark):
    config = E10Config(num_samples=240, epochs=6, shards=4, seed=0)
    result = run_once(benchmark, run_e10_sharded_throughput, config)
    record_result(result)
    record_json("E10", result)

    # parity is unconditional: sharding must never change a verdict
    assert result.summary["verdict_mismatches"] == 0
    # the warm re-scan ran on a *fresh* pool against the disk tier another
    # pool filled: every hit crossed a process boundary
    assert result.summary["warm_hit_rate"] == 1.0
    single_row, one_row, many_row, warm_row = result.rows
    assert warm_row["cache_hit_rate"] == 1.0
    # acceptance: cold sharded throughput scaling, floored by the hardware
    floor = speedup_floor(available_cores(), config.shards)
    assert result.summary["sharded_speedup"] >= floor, (
        f"sharded speedup {result.summary['sharded_speedup']:.2f} below "
        f"floor {floor:.2f} at {available_cores()} usable cores")
    # warm-vs-cold wall-clock is disk/page-cache dependent (small contracts
    # can re-lower faster than .npz reads on slow disks), so the warm
    # contract gated here is perfect sharing -- hit_rate 1.0 + parity --
    # with the measured ratio kept as telemetry in the summary
    assert result.summary["warm_vs_cold_ratio"] > 0.0

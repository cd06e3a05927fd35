"""E16: observability -- disarmed tracing is free, armed costs <= 10%.

The tracing layer's acceptance experiment: the same 240-contract
per-contract scan loop runs with tracing disarmed (the production
default -- every instrumentation site is one module-global ``None``
check) and with a tracer armed, in interleaved disarmed/armed pairs.
The contracts: (1) the median ratio of consecutive disarmed passes stays
at jitter level, so instrumenting the hot paths did not slow the seed
stack (E8/E12's seed-gated throughputs hold independently); (2) armed
tracing costs at most 10% wall clock, as the median per-pair ratio; (3) span
accounting is exact -- every scan yields exactly one trace, no orphan
spans, every same-thread child nests inside its parent; (4) armed and
disarmed passes produce identical verdicts.

The overhead ratios are machine-independent, so ``check_regression.py``
ceilings them even under ``--ratios-only``; the mismatch counters are
zero-rise gated.
"""

from benchmarks.conftest import record_json, record_result, run_once
from repro.evaluation import E16Config, run_e16_observability


def test_bench_e16_observability(benchmark):
    config = E16Config(num_samples=240, epochs=6, seed=0)
    result = run_once(benchmark, run_e16_observability, config)
    record_result(result)
    record_json("E16", result)

    # fidelity: tracing must never change a verdict
    assert result.summary["verdict_mismatches"] == 0
    # span accounting: one trace per scan, no orphans, children nest
    assert result.summary["span_accounting_mismatches"] == 0
    assert result.summary["span_nesting_mismatches"] == 0
    assert result.summary["traces"] == config.num_samples
    # acceptance: armed tracing within the 10% overhead cap
    ratio = result.summary["armed_overhead_ratio"]
    assert ratio <= config.armed_overhead_cap, (
        f"armed tracing cost {ratio:.3f}x the disarmed stack "
        f"(contract: <= {config.armed_overhead_cap:g}x)")

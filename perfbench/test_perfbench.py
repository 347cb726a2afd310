"""Self-tests of the benchmark.

    python3 -m pytest -q perfbench

The two end-to-end runs take about a minute on two cores.
"""

import json
import subprocess
import sys

import pytest

import pinning
import run
import workloads

sys.path.insert(0, str(workloads.SRC))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_configs(workload):
    seed = 12345
    first = workloads.generate_configs(workload, workloads.variant_of(seed))
    assert first == workloads.generate_configs(workload, workloads.variant_of(seed))
    other = workloads.generate_configs(workload, workloads.variant_of(seed + 1))
    assert first != other


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_declared_metric_is_printed(trace, section):
    proc = subprocess.run(
        [sys.executable, str(workloads.BENCH / "run.py"), "--workload", "trace-cli",
         "--seed", "5", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, check=True)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = [m["name"] for m in run.BENCHMARK[section]]
    assert sorted(result["metrics"]) == sorted(declared)
    for name in declared:
        assert isinstance(result["metrics"][name]["value"], (int, float))
        assert any(ln.startswith(f"{name} = ") for ln in lines)
    if trace == 0:
        for gate in run.GATES:
            assert any(ln.startswith(f"{gate} = 0") for ln in lines)


def _pinned_record():
    counts = [0] * workloads.N_BINS
    for i in range(40, 85):
        counts[i] = 900
    n = sum(counts)
    return {"n_emitted": 2 * n, "n_detected": n, "n_blocked": n, "n_escaped": 0,
            "n_steplimit": 0, "underflow": 0, "overflow": 0, "counts": counts}


def test_last_bit_move_passes_with_small_tv():
    pinned = _pinned_record()
    produced = json.loads(json.dumps(pinned))
    produced["counts"][50] -= 1
    produced["counts"][51] += 1
    tv, reasons = pinning.check(produced, pinned)
    assert reasons == [] and 0 < tv < 1e-4


@pytest.mark.parametrize("corrupt", ["shift", "tally"])
def test_wrong_histogram_fails(corrupt):
    pinned = _pinned_record()
    produced = json.loads(json.dumps(pinned))
    if corrupt == "shift":
        produced["counts"] = produced["counts"][3:] + [0, 0, 0]
    else:
        produced["n_blocked"] += 1
    tv, reasons = pinning.check(produced, pinned)
    assert reasons


def test_wrong_pinned_histogram_counts_as_failed(monkeypatch):
    real_load = pinning.load

    def corrupted(workload, variant):
        pinned = real_load(workload, variant)
        rec = pinned["trace"]
        rec["counts"] = rec["counts"][5:] + [0] * 5
        return pinned

    monkeypatch.setattr(pinning, "load", corrupted)
    result = run.run_workload("trace-cli", seed=2, seconds=0.1, trace=False)
    assert result["failed"] == result["attempted"] >= 1
    assert result["gates"]["failed_frac"] == 1.0
    assert result["gates"]["tv_to_pinned"] > 0

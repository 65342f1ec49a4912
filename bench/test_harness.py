"""Smoke test of the benchmark harness: every workload at its tiny size.

    python3 -m pytest bench/test_harness.py

Each run must pass its exact-output gate and print every metric that
BENCHMARK.json declares, by name and with its unit, plus fail_frac.
"""

import json
import math
import re

import pytest

import run
import workloads

BENCHMARK = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_metric_is_printed_with_its_unit(workload, trace, capsys):
    result = run.run(workload, workloads.DEFAULT_SEED, seconds=0, trace=trace, tiny=True)
    printed = capsys.readouterr().out
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    for name, unit in [*declared.items(), ("fail_frac", "ratio")]:
        assert re.search(rf"^{re.escape(name)} +\S+ +{re.escape(unit)}\b", printed, re.M), name
    assert result["correct"], printed
    assert result["attempted"] > 0 and result["failed"] == 0
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())


def test_workload_reasons_match_the_benchmark_file():
    assert {w["name"]: w["why"] for w in BENCHMARK["workloads"]} == workloads.WHY

"""Smoke test of the benchmark itself, at the tiny "smoke" size.

    python3 -m pytest -q bench/test_smoke.py

It checks that every metric of BENCHMARK.json is reported once with its
unit, that the seed alone fixes the inputs and residuals, and that in a
traced run the spans' self times add up to the instance time.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload: str, seed: int, trace: int) -> tuple:
    """(last stdout line, full record) of one smoke-size run."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace),
         "--size", "smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    path = ROOT / ".bench_results" / f"{workload}-seed{seed}-trace{trace}-smoke.json"
    return last, json.loads(path.read_text())


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_once_with_its_unit(workload, trace, kind):
    last, _ = run(workload, 1, trace)
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in last["metrics"].items()} == expected
    for name, m in last["metrics"].items():
        assert set(m) == {"value", "unit"}, name
        assert isinstance(m["value"], (int, float)), name
        assert math.isfinite(m["value"]), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_fixes_inputs_and_residuals(workload):
    _, first = run(workload, 3, 0)
    _, again = run(workload, 3, 0)
    _, other = run(workload, 4, 0)
    assert first["env"]["input_digest"] == again["env"]["input_digest"]
    assert first["env"]["input_digest"] != other["env"]["input_digest"]
    assert first["extra"]["worst_residuals"] == again["extra"]["worst_residuals"]
    assert (first["metrics"]["residual_headroom_dec"]
            == again["metrics"]["residual_headroom_dec"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_span_self_times_add_up_to_instance_time(workload):
    _, rec = run(workload, 1, 1)
    spans = rec["spans"]
    assert spans
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    roots, self_sum, root_self = {}, {}, {}
    for (name, start, end, parent, inst), s in zip(spans, own):
        self_sum[inst] = self_sum.get(inst, 0.0) + s
        if parent < 0:
            assert name == "bench.instance"
            roots[inst] = end - start
            root_self[inst] = s
        else:
            assert spans[parent][4] == inst
            assert spans[parent][1] <= start <= end <= spans[parent][2]
    for inst, total in roots.items():
        assert self_sum[inst] == pytest.approx(total, rel=1e-9, abs=1e-12)
    # the named layer spans, not the gaps between them, hold the time
    assert sum(root_self.values()) < 0.1 * sum(roots.values())

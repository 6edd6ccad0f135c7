"""Tests for the benchmark itself, at tiny input sizes.

Run from the repository root: ``python -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from layertrace import LayerTracer  # noqa: E402
from measure import PassivityError, check_passive, measure  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _declared(kind: str):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def _emitted(result):
    line = json.loads(result.line())
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    return {name: m["unit"] for name, m in line["metrics"].items()}


def test_spec_names_the_workloads_and_command():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_emits_exactly_the_declared_metrics(workload, trace):
    result = measure(workload, seed=3, seconds=0, trace=trace,
                     scale="tiny")
    kind = "per_layer" if trace else "end_to_end"
    assert _emitted(result) == _declared(kind)
    assert result.failed == 0 and not result.errors
    assert json.loads(result.line())["correct"] is True


def test_inputs_hold_the_same_work_on_every_seed():
    from workloads import SIZES, tsp_search_nodes

    size = SIZES["tiny"]
    for seed in (1, 2):
        tsp_wl = WORKLOADS["tsp-jit"](seed, "tiny")
        low, high = size["tsp_search_nodes"]
        assert len(tsp_wl.sources) == size["tsp_panel"]
        for source in tsp_wl.sources:
            instance = int(source.split("new TspData(n, ")[1].split(")")[0])
            assert low <= tsp_search_nodes(size["tsp_cities"],
                                           instance) <= high
        serve_wl = WORKLOADS["serve-sim"](seed, "tiny")
        assert all(len(arrivals) == size["serve_requests"]
                   for schedule in serve_wl.schedules
                   for arrivals in schedule)


def _wrong_reference(wl):
    if hasattr(wl, "sources"):
        wl.expected = [[None] for _ in wl.sources]
    else:
        wl.expected = [-1] * wl.members


@pytest.mark.parametrize("workload", ["tsp-jit", "serve-sim"])
def test_wrong_reference_fails_every_operation(workload):
    result = measure(workload, seed=4, seconds=0, trace=True, scale="tiny",
                     prepare_hook=_wrong_reference)
    assert result.metrics["failed_frac"][0] == 1.0
    assert json.loads(result.line())["correct"] is False


def test_passivity_check_fires_on_a_tampered_counter():
    wl = WORKLOADS["serve-sim"](5, "tiny")
    wl.prepare()
    plain = wl.op(0)
    with LayerTracer() as tracer:
        traced = wl.op(0, tracer)
    check_passive(plain.counters, traced.counters)
    traced.counters["net.messages"] += 1
    with pytest.raises(PassivityError, match="net.messages"):
        check_passive(plain.counters, traced.counters)


def test_tampered_traced_run_is_reported_incorrect():
    def tamper(wl):
        real = wl.op

        def op(member, tracer=None):
            out = real(member, tracer)
            if tracer is not None:
                out.counters["sim.events"] += 1
            return out

        wl.op = op

    result = measure("tsp-jit", seed=6, seconds=0, trace=True,
                     scale="tiny", prepare_hook=tamper)
    assert result.failed > 0
    assert any("not passive" in e for e in result.errors)
    assert json.loads(result.line())["correct"] is False


def test_tracer_restores_every_patched_attribute():
    from repro.dsm.protocol import DsmEngine
    from repro.net.transport import Transport

    before = (DsmEngine.read_check, Transport.on, Transport.send)
    with LayerTracer():
        assert DsmEngine.read_check is not before[0]
    assert (DsmEngine.read_check, Transport.on, Transport.send) == before


def test_without_program_sources_exits_nonzero(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tsp-jit",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

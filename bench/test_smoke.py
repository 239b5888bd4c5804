"""Smoke test of the benchmark itself: ``python3 -m pytest bench/test_smoke.py``.

Runs every workload at tiny size, traced and untraced, and checks that each
metric named in BENCHMARK.json is emitted with its unit and that no call
failed.  Also checks that a missing hook target degrades to ``None`` and
that the benchmark refuses to run without the package's sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_emits_every_metric(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace, "--tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    meta = json.loads(lines[-2])["meta"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert meta["failed_frac"] == 0
    declared = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]


def test_missing_hook_target_reads_none(monkeypatch):
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    try:
        import ordercalc
        import ordercalc._kernels_fallback as kernels
        from ordercalc import Element, LatticeFunction, OrderInterval, ToleranceSchedule
        from run import pass_layers
        from tracing import Tracer

        monkeypatch.delattr(kernels, "darboux_sampled_fn")
        monkeypatch.delattr(kernels, "darboux_sampled")
        tracer = Tracer()
        with tracer.installed():
            f = LatticeFunction.coordinatewise(["t^2"])
            ordercalc.integrate(f, OrderInterval(Element([0.0]), Element([1.0])), ToleranceSchedule(1e-3, 12))
        layers = pass_layers(tracer)
        assert f"{kernels.__name__}.darboux_sampled" in tracer.missing
        assert layers["kernels.busy_s.sampled"] is None
        assert layers["kernels.busy_s.critical"] is not None
        assert layers["integrate.calls"] == 1
    finally:
        del sys.path[:2]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "oracle", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

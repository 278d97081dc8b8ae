"""Smoke test of the benchmark: every workload at the shortest run.

    python3 -m pytest -q perfbench/test_smoke.py     # about four minutes

Each workload runs untraced and traced with ``--seconds 1``; every metric
declared in BENCHMARK.json must print with its unit, and every output
check must pass.  A checkout without the package sources must fail
without printing a result.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=900)


def _sections(stdout: str) -> dict[str, str]:
    """One workload's printed output per name, split at its header line."""
    parts = re.split(r"^(?=workload \S+ )", stdout, flags=re.M)
    return {p.split()[1]: p for p in parts if p.startswith("workload ")}


@pytest.mark.parametrize("trace", [0, 1])
def test_every_workload_prints_its_metrics_and_passes_its_checks(trace):
    proc = _run("--workload", "all", "--seed", "0", "--seconds", "1",
                "--trace", str(trace))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    sections = _sections(proc.stdout)
    assert set(sections) == {w["name"] for w in SPEC["workloads"]}
    for name, text in sections.items():
        for m in declared:
            pattern = rf"^{re.escape(m['name'])}\s+-?[0-9.e+-]+ {re.escape(m['unit'])}$"
            assert re.search(pattern, text, re.M), f"{name}: {m['name']} missing"
        result = json.loads([ln for ln in text.splitlines() if ln.startswith("{")][-1])
        assert result["correct"] and result["failed"] == 0, text
        assert set(result["metrics"]) == {m["name"] for m in declared}
        assert "FAILED" not in text


def test_without_sources_it_fails_and_prints_no_result():
    bare = HERE / "results" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    try:
        proc = _run("--workload", SPEC["workloads"][0]["name"], "--seed", "0",
                    "--seconds", "1", "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_a_missing_hook_target_is_reported_absent(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(HERE))
    import dcinv.forward
    import hooks

    monkeypatch.delattr(dcinv.forward, "pcg_block")
    tracer = hooks.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["dcinv.forward.pcg_block"]
    assert not hasattr(dcinv.forward.DCSimulation.predict, "__wrapped__")

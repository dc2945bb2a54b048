"""Smoke test of the benchmark on tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py

Runs exhaustive n=4, random n<=5 and det at n=6 through run.py, traced and
untraced, and checks that every metric BENCHMARK.json names comes back,
that the traced self times add up, that a tampered recorded answer trips
the correctness gate, and that a checkout without sources is refused.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SMOKE = ["smoke-exhaustive4", "smoke-random5", "smoke-det6"]

sys.path.insert(0, str(ROOT / "src"))

import drive  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", SMOKE)
def test_every_named_metric_appears(workload, trace):
    proc = bench("--workload", workload, "--seed", "7", "--seconds", "0.2",
                 "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    prov, result = json.loads(lines[-2])["provenance"], json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {"git_sha", "backend", "python", "nproc", "seed"} <= set(prov)
    named = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in named}
    for m in named:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace:
        got = {k: v["value"] for k, v in result["metrics"].items()}
        layers = sum(v for k, v in got.items()
                     if k.endswith("self_s") and not k.startswith("cli."))
        assert layers + got["cli.self_s"] == pytest.approx(got["trace.wall_s"], rel=1e-6)


def test_traced_counts_on_exhaustive4():
    proc = bench("--workload", "smoke-exhaustive4", "--seed", "1", "--seconds", "0",
                 "--trace", "1")
    got = {k: v["value"] for k, v in json.loads(proc.stdout.splitlines()[-1])["metrics"].items()}
    assert got["qmatrix.builds_per_tree"] == 15
    assert got["exactdet.dets_per_tree"] == 24
    assert got["treekit.distances.calls"] == 16 * 17
    assert got["permlab.perms"] == 16 * 2 * 24


def _tampered(name: str, **change):
    workload = WORKLOADS[name]
    first = next(workload.make_passes(0))
    bad = [dataclasses.replace(inv, expect={**inv.expect, **change}) for inv in first]
    return workload, bad


@pytest.mark.parametrize("name,change", [
    ("smoke-det6", {"sha256": "0" * 64}),
    ("smoke-exhaustive4", {"checks": 192}),
    ("smoke-random5", {"trees": 3}),
])
def test_tampered_answer_trips_the_gate(name, change):
    from qdistmat.cli import main

    workload, bad = _tampered(name, **change)
    out = drive.run(main, workload, [bad], 0)
    assert out.failed == out.trees == sum(inv.trees for inv in bad)
    assert len(out.problems) == len(bad)


@pytest.mark.parametrize("name", SMOKE)
def test_recorded_answers_pass_the_gate(name):
    from qdistmat.cli import main

    workload = WORKLOADS[name]
    out = drive.run(main, workload, workload.make_passes(3), 0)
    assert out.failed == 0 and out.passes == 1, out.problems


def test_a_repeated_call_ends_the_run():
    from qdistmat.cli import main

    workload = WORKLOADS["smoke-det6"]
    out = drive.run(main, workload, workload.make_passes(0), float("inf"))
    assert out.passes == 1 and out.trees == 2


def test_checkout_without_sources_is_refused(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "random8", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""

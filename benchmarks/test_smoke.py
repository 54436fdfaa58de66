"""Smoke test of the benchmark itself, at the --tiny sizes.

    python3 -m pytest benchmarks/test_smoke.py -q

Every workload must print every metric BENCHMARK.json names, with its
unit, pass its correctness gate, and show the layer shape the workloads
were chosen for; a perturbed fingerprint must make the gate fail.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 0  # the seed the --tiny fingerprints are recorded at


def run(workload: str, trace: int, *extra: str) -> dict:
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", str(SEED),
         "--seconds", "0.5", "--trace", str(trace), "--tiny", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module", params=WORKLOADS)
def results(request):
    return request.param, run(request.param, 0), run(request.param, 1)


def test_metrics_printed_with_units(results):
    _, plain, traced = results
    for result, specs in ((plain, SPEC["end_to_end"]), (traced, SPEC["per_layer"])):
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert {name: m["unit"] for name, m in result["metrics"].items()} == \
            {s["name"]: s["unit"] for s in specs}
        assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_layer_shape(results):
    workload, _, traced = results
    calls = {name: m["value"] for name, m in traced["metrics"].items() if name.endswith(".calls")}
    assert (calls["decoder.hadamard_transform.calls"] > 0) == (
        workload in ("wer-phi-10-2", "decode-single-12-2"))
    assert (calls["core.encode_batch.calls"] > 0) == (workload == "wer-psi-8-2")
    assert (calls["decoder.genie_batch.calls"] > 0) == (workload == "genie-12-1")
    assert traced["metrics"]["failed_fraction"]["value"] == 0


def _perturb(entry: dict) -> None:
    key = sorted(entry)[0]
    value = entry[key]
    entry[key] = value + 1 if isinstance(value, int) else {"perturbed": value}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_perturbed_fingerprint_fails(workload, tmp_path):
    table = json.loads((BENCH_DIR / "fingerprints.json").read_text())
    _perturb(table["tiny"][workload][str(SEED)])
    path = tmp_path / "fingerprints.json"
    path.write_text(json.dumps(table))
    result = run(workload, 1, "--fingerprints", str(path))
    assert not result["correct"]
    assert result["failed"] > 0
    assert result["metrics"]["failed_fraction"]["value"] > 0

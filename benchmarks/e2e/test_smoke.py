"""Smoke test of the benchmark itself (run it explicitly; tier-1's
``testpaths`` stays ``tests/``)::

    python -m pytest benchmarks/e2e/test_smoke.py -q

Runs ``run.py --smoke`` (tiny sizes, a seed the baseline does not use)
and checks that every metric ``BENCHMARK.json`` names comes out with its
unit, and that ``compare.py`` finds nothing worse in a result compared
with itself.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def test_smoke_run_reports_every_declared_metric(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert any(m["name"] == "setup_s" for m in spec["end_to_end"])

    out = tmp_path / "smoke.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--seed", "2",
         "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]
    result = json.loads(out.read_text())

    assert set(result["workloads"]) == {w["name"] for w in spec["workloads"]}
    layer_units = {}
    for name, runs in result["workloads"].items():
        timed, traced = runs["timed"], runs["traced"]
        assert timed["correct"] and traced["correct"], name
        assert timed["failed"] == traced["failed"] == 0, name
        # Every end-to-end metric applies to every workload.
        for metric in spec["end_to_end"]:
            got = timed["metrics"][metric["name"]]
            assert got["unit"] == metric["unit"], (name, metric["name"])
            assert got["value"] > 0, (name, metric["name"])
            assert f"{metric['name']:<40}" in done.stdout
        for metric_name, got in traced["metrics"].items():
            layer_units[metric_name] = got["unit"]
    # A per-layer metric is left out where its layer does no work, but
    # each one is measured by at least one workload — except the p99,
    # which needs 1 000 samples and a smoke run has a tenth of that.
    for metric in spec["per_layer"]:
        if metric["name"] != "engine.latency_p99_ms":
            assert layer_units.get(metric["name"]) == metric["unit"], metric["name"]

    same = subprocess.run(
        [sys.executable, str(HERE / "compare.py"), str(out), str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert same.returncode == 0, same.stdout
    assert " worse" not in same.stdout.splitlines()[-1]

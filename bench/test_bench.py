"""Smoke tests of the benchmark harness itself, at tiny sizes.

    python3 -m pytest bench/test_bench.py

They run every workload untraced and traced, check that every metric named
in BENCHMARK.json is printed, that a corrupted frozen reference is caught,
and that the benchmark refuses to run without the package source.  They
take about a minute, most of it the naive oracle of ``exact-oracle``, whose
smallest box is already 6 400 codewords.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(HERE))
from run import WORKLOADS  # noqa: E402  (BENCHMARK.json lists the steady ones)


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_workload_prints_every_metric(trace):
    proc = _bench("--workload", "all", "--smoke", "--seed", "7",
                  "--seconds", "0", "--trace", trace)
    results = _result(proc)
    assert sorted(results) == sorted(WORKLOADS)
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)
    group = SPEC["per_layer" if trace == "1" else "end_to_end"]
    for name, res in results.items():
        assert res["correct"] and res["failed"] == 0, (name, proc.stderr)
        assert res["attempted"] >= 1
        assert set(res["metrics"]) == {m["name"] for m in group}, name
        for m in group:
            assert res["metrics"][m["name"]]["unit"] == m["unit"]
    for name in WORKLOADS:
        line = next(ln for ln in proc.stdout.splitlines() if ln.startswith(name + ":"))
        assert "fail_ratio=0 ratio" in line


def _copy_checkout(dst: Path, with_source: bool) -> None:
    """BENCHMARK.json and bench/ (and src/ if asked) copied under ``dst``."""
    skip = shutil.ignore_patterns("__pycache__")
    shutil.copy(ROOT / "BENCHMARK.json", dst)
    shutil.copytree(HERE, dst / "bench", ignore=skip)
    if with_source:
        shutil.copytree(ROOT / "src", dst / "src", ignore=skip)


def test_corrupted_reference_drives_fail_ratio_above_zero(tmp_path):
    _copy_checkout(tmp_path, with_source=True)
    path = tmp_path / "bench" / "reference.json"
    ref = json.loads(path.read_text())
    point = ref["golden_curves"]["FIRST_USER"][0]
    point["D_value"] *= 1 + 2.0**-40
    point["numerator"][0] = ["1000", "0"]
    path.write_text(json.dumps(ref))
    for name in ("golden-curves", "sampled-cli", "exact-oracle"):
        proc = _bench("--workload", name, "--smoke", "--seconds", "0", cwd=tmp_path)
        res = _result(proc)
        assert not res["correct"] and res["failed"] > 0, name
        assert "fail_ratio=0 " not in proc.stdout
        assert "FAILED" in proc.stderr


def test_refuses_to_run_without_the_package_source(tmp_path):
    _copy_checkout(tmp_path, with_source=False)
    proc = _bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

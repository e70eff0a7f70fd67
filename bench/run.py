"""Benchmark of the macdecay package: four workloads through its public API.

    python3 bench/run.py --workload golden-curves --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all          # every workload, one line each

Workloads: golden-curves, sampled-cli, rank-sweep, exact-oracle (see
``workloads.py`` and ``meta.json`` for why each is there).  BENCHMARK.json
lists the first three; exact-oracle is left out of it because its figures
do not hold still on a shared 2-core host (``meta.json``).  Each workload
runs in a fresh interpreter (``worker.py``) that measures untraced passes
for ``--seconds`` and checks every operation of every pass.  Set-up is
timed in that interpreter and in ``SETUP_SAMPLES - 1`` more that only set
up; the median is reported.  With ``--trace 1`` the per-layer metrics of
``tracer.py`` are reported instead and the spans are written under
``.bench_work/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``fail_ratio`` is
``failed / attempted``; it is printed on the line before.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
WORKLOADS = ("golden-curves", "sampled-cli", "rank-sweep", "exact-oracle")
DEFAULT_SEED = 1  # the seed of the frozen sampled CSV (workloads.DEFAULT_SEED)
SETUP_SAMPLES = 11
# The package's own worker processes are the load (at most nproc of them);
# one BLAS thread per process keeps processes x threads within nproc.
PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class BenchError(RuntimeError):
    pass


def _child(args: list[str], timeout: float) -> dict:
    env = dict(os.environ, **PINNED_ENV)
    env.pop("MACDECAY_WORKERS", None)
    env.pop("MACDECAY_BUDGET", None)
    # a session of its own, so that a timeout or an interrupt also ends the
    # package's pool workers started by the child
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except BaseException:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    lines = out.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"workload process exited with code {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False) -> dict:
    """Run one workload in fresh interpreters; the result line as a dict."""
    workdir = WORK / f"{name}-{os.getpid()}"
    base = [
        "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
        "--workdir", str(workdir),
    ] + (["--smoke"] if smoke else [])
    # the last pass may start just before ``seconds`` are up, and a traced
    # run adds two untraced passes; the longest pass takes about 13 s
    timeout = 3 * seconds + 110
    # set-up samples are split around the workload run, so that a slow spell
    # of the machine does not sway all of them
    probes = 0 if trace else SETUP_SAMPLES - 1
    setups = []
    try:
        for _ in range(probes // 2):
            setups.append(_child(base + ["--setup-only"], timeout)["setup_s"])
        res = _child(base + ["--trace", str(int(trace))], timeout)
        for _ in range(probes - probes // 2):
            setups.append(_child(base + ["--setup-only"], timeout)["setup_s"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics = res["metrics"]
    if not trace:
        setups.append(metrics["setup_s"]["value"])
        metrics["setup_s"]["value"] = statistics.median(setups)
    for msg in res["messages"]:
        print(f"{name}: FAILED {msg}", file=sys.stderr)
    fail_ratio = res["failed"] / res["attempted"]
    shown = " ".join(
        f"{k}={m['value']:.6g} {res['unit'] if k == 'throughput' else m['unit']}"
        for k, m in metrics.items()
    )
    print(
        f"{name}: {shown} fail_ratio={fail_ratio:.6g} ratio"
        f" ({res['failed']}/{res['attempted']} ops, {res['passes']} passes,"
        f" {res['workers']} workers, seed {seed})"
    )
    return {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes, for the harness's own tests")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "macdecay" / "__init__.py").is_file():
        print(f"bench: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(
                name, args.seed, args.seconds, bool(args.trace), args.smoke
            )
    except (BenchError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

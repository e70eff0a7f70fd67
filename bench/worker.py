"""One workload in a fresh interpreter: set-up, timed passes and checks.

``run.py`` starts this file once per workload run, plus a few more times
with ``--setup-only`` to sample the set-up time, and reads the JSON object
it prints as its last line.  A fresh interpreter per workload keeps peak
memory, set-up time and the package's module-level caches
(``_RANK_CACHE``, ``_SCHED_CACHE``) to that workload alone.
"""

import time

T0 = time.perf_counter()  # set-up is timed from here: imports, towers, specs

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# metric names and units: end_to_end with --trace 0, per_layer with --trace 1
METRICS = json.loads((ROOT / "BENCHMARK.json").read_text())


def _cpu_s() -> float:
    """User + system CPU of this process and of its reaped workers."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest reaped worker."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def _quartiles(xs: list[float]) -> tuple[float, float]:
    """Lower and upper quartile, within the range of ``xs``."""
    if len(xs) < 2:
        return xs[0], xs[0]
    q1, _, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q3


class Tally:
    """Operations attempted and failed over every pass of a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def add(self, checked) -> None:
        attempted, failed, messages = checked
        self.attempted += attempted
        self.failed += failed
        self.messages.extend(messages[: 20 - len(self.messages)])


def timed_run(wl, workers: int, seconds: float, tally: Tally) -> dict:
    """Untraced passes at ``workers`` until ``seconds`` have passed.

    Load from other tenants of the host only ever slows a pass, and it comes
    in spells of seconds to minutes, so ``wall_s`` and ``cpu_s`` are the
    lower quartiles over passes and ``throughput`` the upper quartile of the
    per-pass rates: less swayed by a slow spell than the median, and less
    by one lucky pass than the extreme."""
    walls, cpus, rates = [], [], []
    start = time.perf_counter()
    while True:
        c0 = _cpu_s()
        t0 = time.perf_counter()
        units, outs = wl.run_pass(workers)
        wall = time.perf_counter() - t0
        cpus.append(_cpu_s() - c0)
        walls.append(wall)
        rates.append(units / wall)
        tally.add(wl.check(outs))
        if time.perf_counter() - start >= seconds:
            break
    return {
        "passes": len(walls),
        "metrics": {
            "wall_s": _quartiles(walls)[0],
            "throughput": _quartiles(rates)[1],
            "cpu_s": _quartiles(cpus)[0],
            "peak_rss_mb": _peak_rss_mb(),
        },
    }


def traced_run(wl, workers: int, seconds: float, tally: Tally, trace_path) -> dict:
    """Per-layer metrics: one untraced pass at ``workers``, one at a single
    worker (``fanout.serial_s``), then traced single-worker passes, each
    with a traced set-up, until ``seconds`` have passed."""
    import tracer

    untraced = {}
    for w in (workers, 1):
        t0 = time.perf_counter()
        _, outs = wl.run_pass(w)
        untraced[w] = time.perf_counter() - t0
        tally.add(wl.check(outs))
    serial = untraced[1]

    tr = tracer.Tracer()
    tr.install()
    per_pass = []
    start = time.perf_counter()
    try:
        while True:
            k = len(per_pass) + 1
            tr.pass_id = k
            wl.setup()
            t0 = time.perf_counter()
            _, outs = wl.run_pass(1)
            traced_wall = time.perf_counter() - t0
            tr.pass_id = -k  # checks are not part of the pass
            tally.add(wl.check(outs))
            m = tr.layer_metrics(k)
            m["fanout.serial_s"] = serial
            m["fanout.speedup"] = serial / untraced[workers]
            m["cli.out_bytes"] = getattr(wl, "out_bytes", 0)
            m["trace.overhead_ratio"] = traced_wall / serial
            per_pass.append(m)
            if time.perf_counter() - start >= seconds:
                break
    finally:
        tr.uninstall()
    tr.write(trace_path)
    layer = {
        m["name"]: {"value": statistics.median(p[m["name"]] for p in per_pass),
                    "unit": m["unit"]}
        for m in METRICS["per_layer"]
    }
    return {"passes": len(per_pass), "metrics": layer}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "macdecay" / "__init__.py").is_file():
        print("bench: no package source under src/", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed, args.smoke, args.workdir)
    wl.setup()
    setup_s = time.perf_counter() - T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    wl.prepare(workloads.load_reference())
    workers = workloads.nproc()
    tally = Tally()
    if args.trace:
        trace_path = Path(args.workdir).parent / f"trace-{args.workload}-seed{args.seed}.json"
        result = traced_run(wl, workers, args.seconds, tally, trace_path)
    else:
        result = timed_run(wl, workers, args.seconds, tally)
        result["metrics"]["setup_s"] = setup_s
        result["metrics"] = {
            m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]}
            for m in METRICS["end_to_end"]
        }
    result.update(
        workers=workers,
        unit=wl.unit,
        attempted=tally.attempted,
        failed=tally.failed,
        messages=tally.messages,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Regenerate ``reference.json`` from the package source of this checkout.

    python3 bench/freeze.py

Run it only at a commit whose outputs are known to be right: the benchmark
then fails every later commit whose outputs differ.  It freezes the golden
curves (D value, argmin, exact numerator, p-exponent and ``evaluated`` of
every point) and the ``decay.csv`` bytes of the sampled CLI run at the
default seed.  The sampled run is checked against the frozen curves before
its CSV is kept.
"""

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads as W  # noqa: E402

WORKDIR = HERE.parent / ".bench_work" / "freeze"


def main() -> int:
    workers = W.nproc()
    golden = W.GoldenCurves(W.DEFAULT_SEED, False, WORKDIR)
    golden.setup()
    _, outs = golden.run_pass(workers)
    curves = {}
    for (pattern, _), rep in outs:
        if isinstance(rep, Exception):
            raise rep
        curves.setdefault(pattern, []).append(W.point_record(rep))

    sampled = W.SampledCli(W.DEFAULT_SEED, False, WORKDIR)
    sampled.setup()
    ref = {
        "golden_curves": curves,
        "sampled_cli": {
            "seed": W.DEFAULT_SEED,
            "nmax": sampled.n_max,
            "samples": sampled.samples,
            "csv": None,
        },
    }
    try:
        sampled.prepare(ref)
        _, outs = sampled.run_pass(workers)
        attempted, failed, messages = sampled.check(outs)
        if failed:
            print("\n".join(messages), file=sys.stderr)
            return 1
        ref["sampled_cli"]["csv"] = (sampled.out / "decay.csv").read_text()
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
    with open(W.REFERENCE, "w") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")
    print(f"wrote {W.REFERENCE}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

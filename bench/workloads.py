"""The benchmark's four workloads, driven through the package's public API.

A workload builds its code specs in ``setup`` (timed as set-up), makes its
seeded inputs in ``prepare`` (untimed), runs one timed pass in
``run_pass`` and checks every operation of that pass in ``check``.  A pass
returns the work units it covered and one ``(op, output)`` pair per
operation, where the output is the exception if the operation raised.

Calls into the package go through module attributes looked up at call time
(``D.min_abs_det``, not a name imported once), so the tracer's wrappers see
them.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import shutil
from fractions import Fraction
from pathlib import Path

import numpy as np

from macdecay import catalog, cli
from macdecay import construction as C
from macdecay import decay as D
from macdecay.quadratic import QuadElem, RingTag, sqrt_minus3

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
DEFAULT_SEED = 1

G, E = RingTag.GAUSSIAN, RingTag.EISENSTEIN


# ---------------------------------------------------------------------------
# the test-fixture codes


def golden_spec() -> C.CodeSpec:
    """Q(i), U=2, n_t=1, p=1+i."""
    return C.CodeSpec(catalog.build_tower(G, 2, 1), QuadElem(1, 1, G))


def cubic_spec() -> C.CodeSpec:
    """Q(i), U=3, n_t=1, p=2+i."""
    return C.CodeSpec(catalog.build_tower(G, 3, 1), QuadElem(2, 1, G))


def quartic_spec() -> C.CodeSpec:
    """Q(sqrt(-3)), U=2, n_t=2, p=sqrt(-3)."""
    return C.CodeSpec(catalog.build_tower(E, 2, 2), sqrt_minus3())


def miso_spec() -> C.CodeSpec:
    """Q(i), U=1, n_t=3, p=2+i."""
    return C.CodeSpec(catalog.build_tower(G, 1, 3), QuadElem(2, 1, G))


# ---------------------------------------------------------------------------
# helpers shared by the workloads and the reference freezer


def point_record(rep: D.DecayReport) -> dict:
    """The frozen fields of one decay point."""
    return {
        "bounds": list(rep.bounds),
        "D_value": rep.D_value,
        "argmin": [list(v) for v in rep.argmin.vectors],
        "numerator": _coords(rep.det_numerator),
        "p_exponent": rep.det_p_exponent,
        "evaluated": rep.evaluated,
    }


def _coords(fe) -> list[list[str]]:
    return [[str(q.a), str(q.b)] for q in fe.coords]


def _elem(spec: C.CodeSpec, coords):
    tag = spec.tower.tag
    return spec.tower.from_coords(
        [QuadElem(Fraction(a), Fraction(b), tag) for a, b in coords]
    )


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)


def _rand_elem(tower, basis, rng: random.Random, bound: int, nonzero=False):
    while True:
        vec = [rng.randint(-bound, bound) for _ in basis]
        if any(vec) or not nonzero:
            break
    acc = tower.zero()
    for c, g in zip(vec, basis):
        if c:
            acc = acc + g * c
    return acc


def _run_ops(ops):
    """Run (op, thunk) pairs, keeping each result or the exception raised."""
    out = []
    for op, thunk in ops:
        try:
            out.append((op, thunk()))
        except Exception as exc:  # a raising operation counts as failed
            out.append((op, exc))
    return out


# ---------------------------------------------------------------------------
# workloads


class Workload:
    name = ""
    unit = ""

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        self.seed = seed
        self.smoke = smoke
        self.workdir = Path(workdir)

    def setup(self) -> None:
        """Build the code specs; this is what ``setup_s`` times."""
        raise NotImplementedError

    def prepare(self, reference: dict) -> None:
        """Make the seeded inputs and take in the frozen references."""
        self.reference = reference

    def run_pass(self, workers: int) -> tuple[int, list]:
        raise NotImplementedError

    def check(self, outs) -> tuple[int, int, list[str]]:
        """(attempted, failed, messages) over one pass's operations."""
        failed = []
        for op, out in outs:
            if isinstance(out, Exception):
                failed.append(f"{op}: raised {type(out).__name__}: {out}")
                continue
            try:
                err = self.check_op(op, out)
            except Exception as exc:  # a malformed output fails its check
                err = f"check raised {type(exc).__name__}: {exc}"
            if err:
                failed.append(f"{op}: {err}")
        return len(outs), len(failed), failed

    def check_op(self, op, out) -> str | None:
        raise NotImplementedError


class GoldenCurves(Workload):
    """decay_curve on the golden code, FIRST_USER then ALL_USERS, EXHAUSTIVE."""

    name = "golden-curves"
    unit = "codewords/s"

    def setup(self):
        self.spec = golden_spec()
        self.curves = (
            [(D.FIRST_USER, 2), (D.ALL_USERS, 1)]
            if self.smoke
            else [(D.FIRST_USER, 8), (D.ALL_USERS, 3)]
        )

    def run_pass(self, workers):
        outs, units = [], 0
        for pattern, n_max in self.curves:
            try:
                curve = D.decay_curve(self.spec, n_max, pattern=pattern, workers=workers)
            except Exception as exc:
                outs.extend(((pattern, n), exc) for n in range(1, n_max + 1))
                continue
            for n, rep in enumerate(curve, 1):
                outs.append(((pattern, n), rep))
                units += rep.evaluated
        return units, outs

    def check_op(self, op, rep):
        pattern, n = op
        want = self.reference["golden_curves"][pattern][n - 1]
        got = point_record(rep)
        if got != want:
            diff = sorted(k for k in want if got.get(k) != want[k])
            return f"differs from the frozen reference in {diff}"
        return None


class SampledCli(Workload):
    """`macdecay decay --mode sampled` in-process on the golden config."""

    name = "sampled-cli"
    unit = "samples/s"

    def setup(self):
        self.spec = golden_spec()
        self.n_max, self.samples = (2, 2000) if self.smoke else (3, 100_000)

    def prepare(self, reference):
        super().prepare(reference)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.config = self.workdir / "golden.json"
        self.config.write_text(
            json.dumps(
                {
                    "code": {"K": "Q(i)", "U": 2, "n_t": 1, "p": [1, 1]},
                    "samples": self.samples,
                }
            )
        )
        self.out = self.workdir / "out"
        ref = self.reference["sampled_cli"]
        frozen = (
            not self.smoke
            and ref["csv"] is not None
            and self.seed == ref["seed"]
            and (self.n_max, self.samples) == (ref["nmax"], ref["samples"])
        )
        self.frozen_csv = ref["csv"].encode() if frozen else None
        # the exhaustive minimum of each box, |det|^2 and D, from the frozen
        # golden curve
        self.exhaustive = {}
        for pt in self.reference["golden_curves"][D.FIRST_USER][: self.n_max]:
            num = _elem(self.spec, pt["numerator"])
            self.exhaustive[tuple(pt["bounds"])] = (
                D.abs_sq_of_det(self.spec, num, pt["p_exponent"]),
                pt["D_value"],
            )
        self.first_csv = None
        self.out_bytes = 0

    def run_pass(self, workers):
        shutil.rmtree(self.out, ignore_errors=True)
        argv = [
            "decay", "--config", str(self.config), "--mode", "sampled",
            "--nmax", str(self.n_max), "--seed", str(self.seed),
            "--workers", str(workers), "--out", str(self.out),
        ]
        sink = io.StringIO()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                rc = cli.main(argv)
        except Exception as exc:
            return 0, [("cli", exc)]
        return self.n_max * self.samples, [("cli", rc)]

    def check(self, outs):
        # one CLI call, checked as its CSV plus one operation per point
        ((_, rc),) = outs
        attempted = 1 + self.n_max
        if isinstance(rc, Exception):
            return attempted, attempted, [f"cli: raised {type(rc).__name__}: {rc}"]
        if rc != 0:
            return attempted, attempted, [f"cli: exit code {rc}"]
        try:
            csv_bytes = (self.out / "decay.csv").read_bytes()
            points = json.loads((self.out / "decay.json").read_text())["points"]
        except (OSError, ValueError, KeyError) as exc:
            return attempted, attempted, [f"cli: unreadable artifacts: {exc}"]
        self.out_bytes = sum(f.stat().st_size for f in self.out.iterdir())
        points = points + [None] * (self.n_max - len(points))
        expanded = [("cli", csv_bytes)]
        expanded += [(("point", n), pt) for n, pt in enumerate(points, 1)]
        return super().check(expanded)

    def check_op(self, op, out):
        if op == "cli":
            if self.first_csv is None:
                self.first_csv = out
            if out != self.first_csv:
                return "decay.csv bytes differ from the first pass with this seed"
            if self.frozen_csv is not None and out != self.frozen_csv:
                return "decay.csv bytes differ from the frozen reference"
            return None
        pt = out
        if pt is None:
            return "point missing from decay.json"
        bounds = tuple(pt["bounds"])
        if bounds != (op[1],) + (1,) * (self.spec.U - 1):
            return f"unexpected bounds {bounds}"
        if pt["mode"] != D.SAMPLED or pt["samples"] != self.samples:
            return "point is not a sampled point of the configured size"
        box = C.CoefficientBox(bounds, tuple(tuple(v) for v in pt["argmin"]))
        num, s = D.det_exact(C.assemble_codeword(self.spec, box))
        if _coords(num) != pt["exact_det"]["numerator"] or s != pt["exact_det"]["p_exponent"]:
            return "argmin does not reproduce the reported exact determinant"
        abs_sq = D.abs_sq_of_det(self.spec, num, s)
        lo, hi = abs_sq.sqrt_bounds(60)
        d, radius = Fraction(pt["D_value"]), Fraction(pt["error_radius"])
        if not (d - radius <= lo and hi <= d + radius and radius <= d * 2**-40):
            return "D_value and error_radius do not tightly enclose the argmin's D"
        exhaustive_abs_sq, exhaustive_d = self.exhaustive[bounds]
        if abs_sq < exhaustive_abs_sq or pt["D_value"] < exhaustive_d:
            return "sampled D is below the exhaustive D of the same box"
        return None


class RankSweep(Workload):
    """rank_criterion_check over seeded boxes of the cubic and quartic codes."""

    name = "rank-sweep"
    unit = "boxes/s"

    def setup(self):
        self.specs = {"cubic": cubic_spec(), "quartic": quartic_spec()}
        self.count = 1000 if self.smoke else 100_000

    def prepare(self, reference):
        super().prepare(reference)
        rng = np.random.default_rng(self.seed % 2**64)  # numpy wants seed >= 0
        self.boxes = {}
        for name, spec in self.specs.items():
            coeffs = rng.integers(-2, 3, size=(self.count, spec.U, spec.r_per_user))
            while True:
                zero = ~coeffs.any(axis=2)
                if not zero.any():
                    break
                coeffs[zero] = rng.integers(-2, 3, size=(int(zero.sum()), spec.r_per_user))
            bounds = (2,) * spec.U
            self.boxes[name] = [
                C.CoefficientBox(bounds, tuple(map(tuple, users)))
                for users in coeffs.tolist()
            ]

    def run_pass(self, workers):
        ops = [
            (name, lambda spec=spec, boxes=self.boxes[name]: D.rank_criterion_check(spec, boxes))
            for name, spec in self.specs.items()
        ]
        outs = _run_ops(ops)
        units = sum(len(self.boxes[op]) for op, out in outs if not isinstance(out, Exception))
        return units, outs

    def check_op(self, op, rep):
        if rep.total != len(self.boxes[op]):
            return f"swept {rep.total} of {len(self.boxes[op])} boxes"
        if not rep.passed:
            return (
                f"{len(rep.zero_failures)} singular and "
                f"{len(rep.tau_failures)} non-tau-fixed determinants"
            )
        return None


class ExactOracle(Workload):
    """Naive oracle, exact block determinants and Hilbert-90 witnesses."""

    name = "exact-oracle"
    unit = "dets/s"

    def setup(self):
        self.golden = golden_spec()
        self.block_specs = [quartic_spec(), cubic_spec(), miso_spec()]
        self.n_blocks, self.n_witnesses = (5, 5) if self.smoke else (300, 100)

    def prepare(self, reference):
        super().prepare(reference)
        rng = random.Random(self.seed)
        self.blocks = []
        for spec in self.block_specs:
            basis = C.gamma_basis(spec.tower)
            done = 0
            while done < self.n_blocks:
                xs = [_rand_elem(spec.tower, basis, rng, 3) for _ in range(spec.n_t)]
                vals = [x.valuation(spec.p) for x in xs if x]
                if vals and min(vals) == 0:
                    self.blocks.append((spec, xs))
                    done += 1
        tower = self.golden.tower
        basis = C.gamma_basis(tower)
        self.quads = []
        for _ in range(self.n_witnesses):
            x, y, z = (_rand_elem(tower, basis, rng, 2, nonzero=True) for _ in range(3))
            self.quads.append((x, x * z, y, z.apply_sigma(1) * y))

    def run_pass(self, workers):
        spec = self.golden
        ops = [
            (
                "naive",
                lambda: (
                    D.naive_min_abs_det(spec, (1, 1)),
                    D.min_abs_det(spec, (1, 1), workers=workers),
                ),
            )
        ]
        ops += [
            (("block", i), lambda s=s, xs=xs: D.det_exact(C.build_M(s, xs)))
            for i, (s, xs) in enumerate(self.blocks)
        ]
        ops += [
            (("witness", i), lambda q=q: D.zero_det_witness_2user(*q))
            for i, q in enumerate(self.quads)
        ]
        outs = _run_ops(ops)
        units = 0
        for op, out in outs:
            if not isinstance(out, Exception):
                units += out[0].evaluated if op == "naive" else 1
        return units, outs

    def check_op(self, op, out):
        if op == "naive":
            slow, fast = out
            for field in ("D_value", "argmin", "abs_sq", "det_numerator",
                          "det_p_exponent", "evaluated"):
                if getattr(slow, field) != getattr(fast, field):
                    return f"naive oracle and engine differ in {field}"
            if point_record(slow) != self.reference["golden_curves"][D.FIRST_USER][0]:
                return "naive oracle differs from the frozen (1,1) point"
            return None
        kind, i = op
        if kind == "block":
            spec, _ = self.blocks[i]
            num, s = out
            if s != 0 or not num:
                return f"block determinant is {'zero' if not num else 'not integral'}"
            if num.valuation(spec.p) > spec.n_t - 1:
                return "valuation exceeds n_t - 1 despite a unit slot"
            return None
        a, b, c, d = self.quads[i]
        if out is None:
            return "norm test holds but no witness was built"
        wx, wy = out
        if not (wx or wy):
            return "witness is the zero pair"
        det = (a * wx) * (d * wy.apply_sigma(1)) - (b * wx.apply_sigma(1)) * (c * wy)
        if det:
            return "witness does not kill the determinant"
        return None


WORKLOADS = {w.name: w for w in (GoldenCurves, SampledCli, RankSweep, ExactOracle)}


def nproc() -> int:
    return len(os.sched_getaffinity(0))

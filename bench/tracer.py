"""Span tracer for the benchmark's traced run.

The tracer wraps public names of the package from outside: each wrapper
replaces the module (or class) attribute that callers look up at call
time, so no file under ``src/`` changes.  ``decay`` imports kernel
functions by name, which is why ``macdecay.decay.det_float_batch`` is
wrapped and not ``macdecay.kernels.det_float_batch``.

Every wrapped call pushes a frame.  When it returns, its duration is added
to the enclosing frame's covered child time, so a span's self time is its
duration minus the time its direct children cover (calls run in one
thread, so children never overlap).  Calls of the high-frequency names in
``AGGREGATED`` (exact field arithmetic, ``gamma_basis``) are folded into
per-pass totals; every other call is kept as a span record
``(id, name, start, end, parent, pass_id, child_s)`` in memory and written
out by ``write`` when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter, defaultdict

from macdecay.kernels import OverflowRisk

# (module, class or None, attribute, span name)
PATCHES = [
    ("macdecay.catalog", None, "build_tower", "catalog.build_tower"),
    ("macdecay.cli", None, "build_tower", "catalog.build_tower"),
    ("macdecay.kernels", None, "lattice_basis", "construction.lattice_basis"),
    ("macdecay.decay", None, "assemble_codeword", "construction.assemble_codeword"),
    ("macdecay.construction", None, "gamma_basis", "construction.gamma_basis"),
    ("macdecay.kernels", None, "gamma_basis", "construction.gamma_basis"),
    ("macdecay.cli", None, "gamma_basis", "construction.gamma_basis"),
    ("macdecay.number_field", "FieldElem", "__mul__", "number_field.mul"),
    ("macdecay.number_field", "FieldElem", "__rmul__", "number_field.mul"),
    ("macdecay.number_field", "FieldElem", "apply_sigma", "number_field.apply_sigma"),
    ("macdecay.number_field", "FieldElem", "embed", "number_field.embed"),
    ("macdecay.number_field", "RealAlgebraic", "__lt__", "number_field.real_lt"),
    ("macdecay.decay", None, "det_float_batch", "kernels.det_float_batch"),
    ("macdecay.decay", None, "det_slack_batch", "kernels.det_slack_batch"),
    ("macdecay.decay", None, "det_int_batch", "kernels.det_int_batch"),
    ("macdecay.decay", None, "coeff_grid", "kernels.coeff_grid"),
    ("macdecay.kernels", "UserTensors", "blocks_float", "kernels.blocks_float"),
    ("macdecay.kernels", "UserTensors", "blocks_int", "kernels.blocks_int"),
    ("macdecay.kernels", "IntKernel", "__init__", "kernels.init"),
    ("macdecay.kernels", "UserTensors", "__init__", "kernels.init"),
    ("macdecay.decay", None, "decay_curve", "decay.decay_curve"),
    ("macdecay.cli", None, "decay_curve", "decay.decay_curve"),
    ("macdecay.decay", None, "min_abs_det", "decay.min_abs_det"),
    ("macdecay.decay", None, "rank_criterion_check", "decay.rank_criterion_check"),
    ("macdecay.decay", None, "naive_min_abs_det", "decay.naive_min_abs_det"),
    ("macdecay.decay", None, "det_exact", "decay.det_exact"),
    ("macdecay.decay", None, "zero_det_witness_2user", "decay.zero_det_witness_2user"),
    ("macdecay.cli", None, "main", "cli.main"),
]

AGGREGATED = {
    "construction.gamma_basis",
    "number_field.mul",
    "number_field.apply_sigma",
    "number_field.embed",
    "number_field.real_lt",
}

class Tracer:
    """In-memory spans and counts for the calls the patches wrap."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.pass_id = 0
        self._stack: list[list] = []  # [span id, name, child_s]
        self._active: Counter = Counter()
        self._next_id = 1
        # per pass: name -> [calls, outermost inclusive seconds, self seconds]
        self.totals: dict[int, dict[str, list]] = defaultdict(
            lambda: defaultdict(lambda: [0, 0.0, 0.0])
        )
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self._restore: list[tuple] = []

    # -- wrapping ---------------------------------------------------------

    def wrap(self, name: str, fn):
        stack = self._stack
        active = self._active
        keep_span = name not in AGGREGATED
        on_call = _COUNTERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else 0
            outer = active[name] == 0
            frame = [span_id, name, 0.0]
            stack.append(frame)
            active[name] += 1
            failed = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                failed = exc
                raise
            finally:
                end = clock()
                stack.pop()
                active[name] -= 1
                dur = end - start
                if stack:
                    stack[-1][2] += dur
                tot = self.totals[self.pass_id][name]
                tot[0] += 1
                if outer:
                    tot[1] += dur
                tot[2] += dur - frame[2]
                if keep_span:
                    self.spans.append(
                        (span_id, name, start, end, parent, self.pass_id, frame[2])
                    )
                if on_call is not None:
                    on_call(self, args, None if failed else result, failed, dur)
            return result

        return wrapper

    def install(self) -> None:
        """Replace every patched attribute with its traced wrapper."""
        originals = []
        for module, cls, attr, name in PATCHES:
            owner = importlib.import_module(module)
            if cls is not None:
                owner = getattr(owner, cls)
            originals.append((owner, attr, owner.__dict__[attr], name))
        for owner, attr, fn, name in originals:
            setattr(owner, attr, self.wrap(name, fn))
            self._restore.append((owner, attr, fn))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore.clear()

    def active(self, name: str) -> bool:
        return self._active[name] > 0

    # -- reporting --------------------------------------------------------

    def layer_metrics(self, pass_id: int) -> dict[str, float]:
        """Per-layer metrics of one traced pass, from its spans and counts,
        named as in the ``per_layer`` list of ``BENCHMARK.json``.

        ``fanout.*``, ``cli.out_bytes`` and ``trace.overhead_ratio`` come from
        outside the tracer and are filled in by the caller."""
        tot = self.totals[pass_id]
        cnt = self.counts[pass_id]

        def calls(name):
            return tot[name][0] if name in tot else 0

        def incl(name):
            return tot[name][1] if name in tot else 0.0

        def self_s(name):
            return tot[name][2] if name in tot else 0.0

        screened = cnt["decay.screened"]
        candidates = cnt["decay.candidates"]
        return {
            "catalog.build_tower_s": incl("catalog.build_tower"),
            "construction.lattice_basis_s": incl("construction.lattice_basis"),
            "construction.assemble_codeword.calls": calls("construction.assemble_codeword"),
            "construction.assemble_codeword_s": incl("construction.assemble_codeword"),
            "construction.gamma_basis.calls": calls("construction.gamma_basis"),
            "number_field.mul.calls": calls("number_field.mul"),
            "number_field.mul_s": incl("number_field.mul"),
            "number_field.apply_sigma.calls": calls("number_field.apply_sigma"),
            "number_field.real_lt.calls": calls("number_field.real_lt"),
            "number_field.real_lt_s": incl("number_field.real_lt"),
            "number_field.embed_s": incl("number_field.embed"),
            "kernels.det_float_batch_s": incl("kernels.det_float_batch"),
            "kernels.det_slack_batch_s": incl("kernels.det_slack_batch"),
            "kernels.blocks_float_s": incl("kernels.blocks_float"),
            "kernels.det_int_batch.rows": cnt["kernels.det_int_batch.rows"],
            "kernels.det_int_batch_s": incl("kernels.det_int_batch"),
            "kernels.blocks_int_s": incl("kernels.blocks_int"),
            "kernels.init_s": incl("kernels.init"),
            "kernels.overflow_fallbacks": cnt["kernels.overflow_fallbacks"],
            "kernels.coeff_grid.rows": cnt["kernels.coeff_grid.rows"],
            "kernels.coeff_grid_s": incl("kernels.coeff_grid"),
            "decay.screened": screened,
            "decay.candidates": candidates,
            "decay.pass_ratio": candidates / screened if screened else 0.0,
            "decay.min_abs_det_s": incl("decay.min_abs_det"),
            "decay.self_s": self_s("decay.min_abs_det"),
            "decay.rank_criterion_check_s": incl("decay.rank_criterion_check"),
            "decay.rank.self_s": self_s("decay.rank_criterion_check"),
            "decay.naive_min_abs_det_s": incl("decay.naive_min_abs_det"),
            "decay.det_exact.calls": calls("decay.det_exact"),
            "decay.det_exact_s": incl("decay.det_exact"),
            "cli.main_s": incl("cli.main"),
            "cli.self_s": incl("cli.main") - cnt["cli.decay_curve_s"],
        }

    def count(self, key: str, amount) -> None:
        self.counts[self.pass_id][key] += amount

    def parent_name(self) -> str | None:
        """Name of the innermost open span (the caller of a finished one)."""
        return self._stack[-1][1] if self._stack else None

    def write(self, path) -> None:
        """Spans and per-pass totals as one JSON document."""
        doc = {
            "fields": ["id", "name", "start", "end", "parent", "pass_id", "child_s"],
            "spans": self.spans,
            "totals": {str(p): dict(t) for p, t in self.totals.items()},
            "counts": {str(p): dict(c) for p, c in self.counts.items()},
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)


# -- counts taken at the same boundaries as the spans ---------------------


def _count_screened(tr: Tracer, args, result, failed, dur) -> None:
    tr.count("decay.screened", int(args[0].shape[0]))


def _count_det_int(tr: Tracer, args, result, failed, dur) -> None:
    rows = int(args[2].shape[0])
    tr.count("kernels.det_int_batch.rows", rows)
    if tr.active("decay.min_abs_det"):
        tr.count("decay.candidates", rows)
    if isinstance(failed, OverflowRisk):
        tr.count("kernels.overflow_fallbacks", 1)


def _count_grid(tr: Tracer, args, result, failed, dur) -> None:
    if result is not None:
        tr.count("kernels.coeff_grid.rows", int(result.shape[0]))


def _count_curve(tr: Tracer, args, result, failed, dur) -> None:
    if tr.parent_name() == "cli.main":
        tr.count("cli.decay_curve_s", dur)


_COUNTERS = {
    "kernels.det_float_batch": _count_screened,
    "kernels.det_int_batch": _count_det_int,
    "kernels.coeff_grid": _count_grid,
    "decay.decay_curve": _count_curve,
}

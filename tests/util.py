"""Shared helpers for the test suite: deterministic random elements and
coefficient boxes over a tower's integral basis."""

import importlib.util
import itertools
from pathlib import Path

import numpy as np

from macdecay.construction import (
    CodeSpec, CoefficientBox, assemble_codeword, gamma_basis,
)
from macdecay.decay import _laplace_det, abs_sq_of_det
from macdecay.finite_fields import pf_trim, reduce_poly_mod_p
from macdecay.kernels import (
    DET_EVAL_REL, EMB_REL_ERR, GRID_ROW_CAP, det_float_batch, det_schedule,
    exponent_matrix,
)
from macdecay.quadratic import units

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def bench_workloads():
    """bench/workloads.py, loaded read-only as a module of its own."""
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def elem_from_gamma(tower, vec):
    """Integral element with the given integer gamma-basis coordinates."""
    basis = gamma_basis(tower)
    if len(vec) != len(basis):
        raise ValueError(f"need {len(basis)} coordinates")
    acc = tower.zero()
    for c, g in zip(vec, basis):
        if c:
            acc = acc + g * int(c)
    return acc


def rand_vec(rng, length, bound):
    return tuple(rng.randint(-bound, bound) for _ in range(length))


def rand_nonzero_vec(rng, length, bound):
    while True:
        v = rand_vec(rng, length, bound)
        if any(v):
            return v


def rand_elem(tower, rng, bound=2, nonzero=False):
    """Random integral element with gamma coordinates in [-bound, bound]."""
    draw = rand_nonzero_vec if nonzero else rand_vec
    return elem_from_gamma(tower, draw(rng, 2 * tower.d, bound))


def rand_box(spec: CodeSpec, rng, bound=2) -> CoefficientBox:
    """Random coefficient box with every user active."""
    vecs = tuple(
        rand_nonzero_vec(rng, spec.r_per_user, bound) for _ in range(spec.U)
    )
    return CoefficientBox(tuple(bound for _ in range(spec.U)), vecs)


def rand_val0_elem(spec: CodeSpec, rng, bound=2):
    """Random integral element with valuation exactly 0 at spec.p."""
    while True:
        x = rand_elem(spec.tower, rng, bound, nonzero=True)
        if x.valuation(spec.p) == 0:
            return x


def draw_samples_reference(rng, bounds, lengths, count):
    """Per-user coefficient vectors drawn with rng.randint, sample by sample
    and user by user, an all-zero vector drawn again.  The reference the
    engine's SAMPLED draw must reproduce word for word."""
    per_user = [[] for _ in bounds]
    for _ in range(count):
        for j, (N, r) in enumerate(zip(bounds, lengths)):
            while True:
                vec = [rng.randint(-N, N) for _ in range(r)]
                if any(vec):
                    per_user[j].append(vec)
                    break
    return per_user


def blocks_float_reference(ut, vecs):
    """UserTensors.blocks_float as a complex tensordot of the coefficients
    cast to complex128, the form its real products replace."""
    v = vecs.astype(np.float64)
    blocks = np.tensordot(v.astype(np.complex128), ut.emb, axes=([1], [0]))
    errs = np.tensordot(np.abs(v), ut.emb_err, axes=([1], [0]))
    return blocks, errs + np.abs(blocks) * EMB_REL_ERR


def a_priori_peaks(spec, kern, stacked):
    """Each subset's peak under the a priori DP audit that det_int_batch's
    measured one replaces: the same formula, but every sub-minor bounded by
    the audited bound of the level below, never by its measured size."""
    sched = det_schedule(exponent_matrix(spec))
    pmaps = kern.power_maps(spec.p, sched.max_pad)
    ub_entry = np.abs(stacked.astype(object)).max(axis=0).tolist()
    ub = {0: [1] + [0] * (kern.dim - 1)}
    peaks = {}
    for i, level in enumerate(sched.steps):
        for mask, terms in level:
            bound = [0] * kern.dim
            peak = 0
            for c, _, pad in terms:
                sub = mask ^ (1 << c)
                pb = kern.product_bound(ub_entry[i][c], ub[sub])
                peak = max(peak, *ub_entry[i][c], *ub[sub], *pb)
                if sub:
                    peak = max(peak, kern._reduce.top)
                if pad:
                    pb = pmaps[pad].bound(pb)
                    peak = max(peak, pmaps[pad].top)
                bound = [x + y for x, y in zip(bound, pb)]
            ub[mask] = bound
            peaks[mask] = max(peak, *bound)
    return peaks


def screen_reference(mats, errs):
    """The float screen's lo^2 and up^2 on whole stacked codewords: the
    determinant and the row-norm slack of the concatenated (batch, n, n)
    blocks and errors, with the slack taken over all n rows at once rather
    than as a product of per-user factors."""
    d = det_float_batch(mats)
    a = np.sqrt(np.sum(np.abs(mats) ** 2, axis=2))
    b = np.sqrt(np.sum(errs.astype(np.float64) ** 2, axis=2))
    n = mats.shape[-1]
    b = b + (n * n) * DET_EVAL_REL * a
    slack = np.prod(a + b, axis=1) - np.prod(a, axis=1)
    s = slack * (1.0 + 2.0**-30) + 1e-300
    ad = np.abs(d)
    lo = np.maximum(ad - s, 0.0)
    up = ad + s
    return lo * lo, up * up


def coeff_grid_reference(N, length):
    """kernels.coeff_grid as one floor-division pass per coordinate and an
    np.delete of the zero row, the form the np.indices grid replaces."""
    base = 2 * N + 1
    count = base**length
    if count > GRID_ROW_CAP:
        raise MemoryError(f"coefficient grid of {count} rows is too large")
    idx = np.arange(count, dtype=np.int64)
    cols = [(idx // base ** (length - 1 - pos)) % base - N for pos in range(length)]
    return np.delete(np.stack(cols, axis=1), (count - 1) // 2, axis=0)


def orbit_representatives_reference(grid, N, units):
    """decay.orbit_representatives as each unit's image of every row and a
    comparison of the two lex keys, the form the one-product test replaces."""
    n, r = grid.shape
    dim = units[0].shape[0]
    weights = (2 * N + 1) ** np.arange(r - 1, -1, -1, dtype=np.int64)
    key = (grid + N) @ weights
    slots = grid.reshape(n, r // dim, dim)
    keep = np.ones(n, dtype=bool)
    for mat in units:
        image = (slots @ mat).reshape(n, r)
        keep &= key <= (image + N) @ weights
    return grid[keep]


def naive_min_reference(spec, bounds):
    """decay.naive_min_abs_det in its per-codeword form: every codeword
    assembled from its box, the same enumeration order and tie-break.  Returns
    (abs_sq, argmin box, numerator, p-exponent, count)."""
    r = spec.r_per_user
    ranges = [
        [v for v in itertools.product(range(-N, N + 1), repeat=r) if any(v)]
        for N in bounds
    ]
    best = None
    count = 0
    # user U outermost, user 1 fastest
    for vectors in itertools.product(*reversed(ranges)):
        box = CoefficientBox(bounds, vectors[::-1])
        num, s = _laplace_det(spec, assemble_codeword(spec, box).values())
        absq = abs_sq_of_det(spec, num, s)
        key = box.lex_key()
        if best is None or absq < best[0] or (
            not best[0] < absq and key < best[1]
        ):
            best = (absq, key, box, num, s)
        count += 1
    absq, _, box, num, s = best
    return absq, box, num, s, count


def irreducible_by_roots_reference(f, p, tag=None):
    """The root search that decided degrees 2 and 3 before Rabin's test
    took every degree: a quadratic or cubic is irreducible over the residue
    field of p iff no element of that field is a root of f mod p."""
    fb, gf = reduce_poly_mod_p(f, p, tag)
    if not 2 <= len(fb) - 1 <= 3:
        raise ValueError("root search decides degrees 2 and 3 only")
    for x in itertools.product(range(gf.ell), repeat=gf.deg):
        acc = fb[-1]
        for c in reversed(fb[:-1]):
            acc = gf.add(gf.mul(acc, x), c)
        if gf.is_zero(acc):
            return False
    return True


def pf_mod_reference(a, b, gf):
    """finite_fields.pf_mod with the leading coefficient of b always
    inverted, the form the monic shortcut replaces."""
    rem = list(a)
    lead_inv = gf.inv(b[-1])
    for i in range(len(rem) - len(b), -1, -1):
        c = gf.mul(rem[i + len(b) - 1], lead_inv)
        if not gf.is_zero(c):
            for j, bc in enumerate(b):
                rem[i + j] = gf.sub(rem[i + j], gf.mul(c, bc))
    return pf_trim(rem, gf)


def canonical_associate_reference(x):
    """quadratic.canonical_associate as the QuadElem product with every
    unit, the form the (a, b) formulas replace."""
    if not x:
        return x
    return min((x * u for u in units(x.tag)), key=lambda z: (z.a, z.b))


def verify_orbit_product(tower):
    """Whether prod_j (x - sigma^j(theta)) expands to f inside L[x]."""
    th = tower.theta()
    coeffs = [tower.one()]
    for j in range(tower.d):
        root = th.apply_sigma(j)
        shifted = [tower.zero()] + coeffs
        scaled = [root * c for c in coeffs] + [tower.zero()]
        coeffs = [a - b for a, b in zip(shifted, scaled)]
    expected = [tower.from_rational(c) for c in tower.f_coeffs]
    return coeffs == expected

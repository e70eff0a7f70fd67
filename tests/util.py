"""Shared helpers for the test suite: deterministic random elements and
coefficient boxes over a tower's integral basis."""

from macdecay.construction import CodeSpec, CoefficientBox, gamma_basis


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

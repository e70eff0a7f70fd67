import pytest

from macdecay.catalog import build_tower
from macdecay.construction import CodeSpec
from macdecay.quadratic import QuadElem, RingTag, sqrt_minus3


@pytest.fixture(scope="session")
def golden_tower():
    # degree-2 period field of conductor 5 over Q(i)
    return build_tower(RingTag.GAUSSIAN, 2, 1)


@pytest.fixture(scope="session")
def golden_spec(golden_tower):
    return CodeSpec(golden_tower, QuadElem(1, 1, RingTag.GAUSSIAN))


@pytest.fixture(scope="session")
def cubic_tower():
    # degree-3 period field of conductor 7 over Q(i), three single-antenna users
    return build_tower(RingTag.GAUSSIAN, 3, 1)


@pytest.fixture(scope="session")
def cubic_spec(cubic_tower):
    return CodeSpec(cubic_tower, QuadElem(2, 1, RingTag.GAUSSIAN))


@pytest.fixture(scope="session")
def quartic_tower():
    # degree-4 period field of conductor 17 over Q(sqrt(-3)), two 2-antenna users
    return build_tower(RingTag.EISENSTEIN, 2, 2)


@pytest.fixture(scope="session")
def quartic_spec(quartic_tower):
    return CodeSpec(quartic_tower, sqrt_minus3())


@pytest.fixture(scope="session")
def miso_tower():
    # same cubic field, single user with three antennas
    return build_tower(RingTag.GAUSSIAN, 1, 3)


@pytest.fixture(scope="session")
def miso_spec(miso_tower):
    return CodeSpec(miso_tower, QuadElem(2, 1, RingTag.GAUSSIAN))


@pytest.fixture(scope="session")
def eisenstein_tower():
    # degree-2 period field over Q(sqrt(-3)), two single-antenna users
    return build_tower(RingTag.EISENSTEIN, 2, 1)


@pytest.fixture(scope="session")
def eisenstein_spec(eisenstein_tower):
    # -2 + omega, the first inert prime find_inert_primes returns
    return CodeSpec(eisenstein_tower, QuadElem(-2, 1, RingTag.EISENSTEIN))


@pytest.fixture(scope="session")
def two_antenna_tower():
    # degree-2 period field of conductor 5 over Q(i), one 2-antenna user
    return build_tower(RingTag.GAUSSIAN, 1, 2)


@pytest.fixture(scope="session")
def two_antenna_spec(two_antenna_tower):
    # n_t = 2, so the exhaustive search takes the one-user grid scan: r = 8,
    # 6,560 codewords at N = 1
    return CodeSpec(two_antenna_tower, QuadElem(1, 1, RingTag.GAUSSIAN))

"""The names the benchmark's tracer wraps and the package exports exist.

bench/tracer.py replaces module and class attributes by name at run time,
so deleting or renaming one of them breaks only the traced benchmark run.
These checks catch that in the unit suite."""

import importlib
import importlib.util
from pathlib import Path

import pytest

import macdecay

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _tracer_patches():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.PATCHES


@pytest.mark.parametrize(
    "module, cls, attr",
    [(m, c, a) for m, c, a, _ in _tracer_patches()],
    ids=lambda v: str(v),
)
def test_traced_attribute_is_defined_on_its_owner(module, cls, attr):
    owner = importlib.import_module(module)
    if cls is not None:
        owner = owner.__dict__[cls]
    # the tracer reads owner.__dict__[attr], not an inherited attribute
    assert attr in owner.__dict__


def test_package_exports_resolve():
    missing = [name for name in macdecay.__all__ if not hasattr(macdecay, name)]
    assert missing == []

"""The benchmark's tracer (`bench/tracing.py`) wraps library names given as
strings; every one of them must exist, and a traced pass must leave the
library as it found it.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import delegation_lab.cli  # the tracer's "cli" layer

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _load_tracing():
    """Import the tracer by path, writing no bytecode cache under `bench/`."""
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


tracing = _load_tracing()
NAMES = [(layer, qualname) for layer, qualname, _, _ in tracing.SPANS] + [
    (layer, qualname) for layer, qualname in tracing.ACCEPTS
]


def _home(layer, qualname):
    """(namespace dict, attribute, original) the tracer patches for a name."""
    owner = importlib.import_module(f"delegation_lab.{layer}")
    owner_name, _, attr = qualname.rpartition(".")
    if owner_name:
        owner = getattr(owner, owner_name)
    return owner.__dict__, attr, owner.__dict__[attr]


def _library_modules():
    return [
        m
        for name, m in sorted(sys.modules.items())
        if name == "delegation_lab" or name.startswith("delegation_lab.")
    ]


@pytest.mark.parametrize(
    "layer, qualname", NAMES, ids=[f"{layer}.{name}" for layer, name in NAMES]
)
def test_every_traced_name_resolves(layer, qualname):
    assert layer in tracing.LAYERS
    _, _, original = _home(layer, qualname)
    assert callable(original)


def test_installed_tracer_patches_every_name_and_restores_it():
    homes = [_home(layer, qualname) for layer, qualname in NAMES]
    originals = {id(original) for _, _, original in homes}
    before = [(m, dict(vars(m))) for m in _library_modules()]
    with tracing.Tracer().installed():
        for namespace, attr, original in homes:
            assert namespace[attr] is not original, attr
        # every alias of a wrapped function, in every library module, is patched
        for module in _library_modules():
            for name, value in vars(module).items():
                assert id(value) not in originals, f"{module.__name__}.{name}"
    for namespace, attr, original in homes:
        assert namespace[attr] is original, attr
    for module, names in before:
        now = vars(module)
        assert all(now[name] is value for name, value in names.items())

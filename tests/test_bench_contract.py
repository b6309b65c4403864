"""The benchmark tracer's entry points exist where it looks them up.

``maintbench/tracer.py``'s ``Tracer.install`` replaces every ``(owner,
name)`` in ``LAYERS`` with ``owner.__dict__[name]`` wrapped. A refactor
that renames, moves or inherits one of them breaks every traced benchmark
run with a KeyError; this test fails first. It needs no Spark session.
"""
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "maintbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("maintbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_layer_entry_point_is_an_own_callable_attribute():
    layers = _load_tracer().LAYERS
    assert layers
    missing = [
        f"{getattr(owner, '__name__', owner)}.{name} ({layer})"
        for owner, name, layer in layers
        if not callable(owner.__dict__.get(name))
    ]
    assert not missing, f"Tracer.install would fail on: {missing}"

"""The end-to-end benchmark's contract with ``src/``, visible in tier-1.

``benchmarks/e2e/layers.py::pins()`` names every callable the tracer
wraps, and the tracer resolves each with ``vars(owner)[attr]`` — so a
pinned method must stay *defined on* its owner, not inherited from a
helper or mixin a refactor moved it to.  Only the ``bench-smoke`` CI job
would notice otherwise.
"""

import importlib.util
import os
import sys

E2E = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "benchmarks", "e2e",
)


def load_layers():
    """Import ``layers.py`` the way ``run.py`` sees it: beside its siblings."""
    sys.path.insert(0, E2E)
    try:
        spec = importlib.util.spec_from_file_location(
            "e2e_layers", os.path.join(E2E, "layers.py")
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module
    finally:
        sys.path.remove(E2E)
        sys.modules.pop("definitions", None)


def test_every_pinned_callable_is_defined_on_its_owner():
    layers = load_layers()
    pins = layers.pins()
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, *_ in pins
        if attr not in vars(owner)
    ]
    assert not missing, f"pins() names callables their owner lacks: {missing}"
    # Every pin charges a span the layer vocabulary knows.
    unmapped = {name for _, _, name, *_ in pins} - set(layers.SPAN_LAYER)
    assert not unmapped, unmapped


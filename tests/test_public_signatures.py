"""No public callable of the library takes a parameter that could loosen a
check: every tolerance, quadrature rule, gate and slack is fixed in code, and
a study's expected order comes from the scheme it runs, so a caller cannot pass
a verdict by choosing one."""

import importlib
import inspect
import pkgutil

import pytest

import trisplit

KNOBS = ("tol", "quad", "refine", "slack", "gate", "expected")

MODULES = sorted(info.name for info in pkgutil.iter_modules(trisplit.__path__, "trisplit."))


def public_callables(module):
    """(name, callable) for the public functions and classes a module defines,
    and the public methods of those classes; imported names are checked where
    they are defined."""
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if callable(obj):
            yield name, obj
        if inspect.isclass(obj):
            for method, member in vars(obj).items():
                if not method.startswith("_") and callable(member):
                    yield f"{name}.{method}", member


def parameters(obj):
    try:
        return inspect.signature(obj).parameters
    except ValueError:  # an exception class inheriting a builtin's constructor: *args only
        return ()


@pytest.mark.parametrize("name", MODULES)
def test_no_public_callable_takes_a_loosening_knob(name):
    knobs = [
        f"{callable_name}({parameter})"
        for callable_name, obj in public_callables(importlib.import_module(name))
        for parameter in parameters(obj)
        if any(knob in parameter.lower() for knob in KNOBS)
    ]
    assert knobs == []

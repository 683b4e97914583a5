"""Every annotation in the package resolves.

With ``from __future__ import annotations`` an annotation is a string that
nothing evaluates, so a name dropped from a module's imports goes unnoticed
until something asks for the hints.  This asks ``typing.get_type_hints`` for
every class, function, method and property each module of ``molstrip``
defines.
"""

import importlib
import inspect
import pkgutil
import typing

import pytest

import molstrip

MODULES = sorted(m.name for m in pkgutil.iter_modules(molstrip.__path__))


def _defined_in(module):
    """(name, object) for each class, function, method and property getter or
    setter that ``module`` defines."""
    for name, obj in vars(module).items():
        if inspect.isclass(obj) and obj.__module__ == module.__name__:
            yield name, obj
            for attr, member in vars(obj).items():
                if isinstance(member, property):
                    funcs = [member.fget, member.fset]
                else:
                    funcs = [getattr(member, "__func__", member)]   # static and class methods
                for func in funcs:
                    if inspect.isfunction(func):
                        yield f"{name}.{attr}", func
        elif callable(obj):
            func = inspect.unwrap(obj)                          # e.g. an lru_cache wrapper
            if inspect.isfunction(func) and func.__module__ == module.__name__:
                yield name, func


def test_every_module_is_checked():
    assert {"cli", "cross_section", "transfer", "verification"} <= set(MODULES)


@pytest.mark.parametrize("module_name", MODULES)
def test_annotations_resolve(module_name):
    module = importlib.import_module(f"molstrip.{module_name}")
    checked = 0
    for name, obj in _defined_in(module):
        try:
            typing.get_type_hints(obj)
        except Exception as exc:
            pytest.fail(f"{module_name}.{name}: {type(exc).__name__}: {exc}")
        checked += 1
    assert checked or not vars(module).get("__all__"), module_name

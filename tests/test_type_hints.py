"""Every annotation in the package resolves: `typing.get_type_hints` succeeds
on each function and method defined in a `sentinel.*` module."""

import importlib
import inspect
import pkgutil
import typing

import pytest

import sentinel

MODULES = sorted(f"sentinel.{info.name}" for info in pkgutil.iter_modules(sentinel.__path__))


def _defined_functions(module):
    """(qualified name, function) of each function and method the module defines."""
    for name, obj in vars(module).items():
        if getattr(obj, "__module__", None) != module.__name__:
            continue  # imported, not defined here
        if inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if isinstance(member, (staticmethod, classmethod)):
                    member = member.__func__
                elif isinstance(member, property):
                    member = member.fget
                if inspect.isfunction(member):
                    yield f"{name}.{attr}", member
        elif callable(obj):
            function = inspect.unwrap(obj)  # e.g. through functools.cache
            if inspect.isfunction(function):
                yield name, function


def test_scan_finds_functions_and_methods():
    policy = dict(_defined_functions(importlib.import_module("sentinel.policy")))
    assert "generate_rollout" in policy
    assert "ScenarioConfig.from_json_obj" in policy
    assert "NoiseSchedule.n_steps" in policy


@pytest.mark.parametrize("module_name", MODULES)
def test_every_annotation_resolves(module_name):
    module = importlib.import_module(module_name)
    unresolved = []
    for name, function in _defined_functions(module):
        try:
            typing.get_type_hints(function)
        except Exception as exc:  # report every failure, whatever its type
            unresolved.append(f"{name}: {type(exc).__name__}: {exc}")
    assert unresolved == []

"""The package root exports the warning and error classes its reports raise."""
from __future__ import annotations

import hashlib
from types import ModuleType

import pytest

import tidalecon
from tidalecon import cost_estimation, metrics


@pytest.mark.parametrize("module, name", [
    (metrics, "AmbiguousIrrWarning"),
    (metrics, "ValidityWindowWarning"),
    (cost_estimation, "RatioWindowWarning"),
])
def test_root_export_is_the_module_class(module, name):
    assert name in tidalecon.__all__
    assert getattr(tidalecon, name) is getattr(module, name)


def test_public_names_are_pinned_in_order():
    # The 43 names and their order: a change to the public API shows here.
    digest = hashlib.sha256(" ".join(tidalecon.__all__).encode()).hexdigest()
    assert digest == "74bef52bea2c90d19dd35b9f5eeb53c2f7b674abfb6ea1f727627471dd8e2aba"


def test_public_names_are_neither_modules_nor_private():
    assert len(tidalecon.__all__) == len(set(tidalecon.__all__)) == 43
    for name in tidalecon.__all__:
        assert not name.startswith("_")
        assert not isinstance(getattr(tidalecon, name), ModuleType), name


def test_star_import_binds_exactly_the_public_names():
    namespace: dict[str, object] = {}
    exec("from tidalecon import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(tidalecon.__all__)
    assert all(namespace[name] is getattr(tidalecon, name) for name in namespace)

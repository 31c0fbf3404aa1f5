"""The package root exports the warning and error classes its reports raise."""
from __future__ import annotations

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

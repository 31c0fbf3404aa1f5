"""Metamorphic properties of the metric bundle over the built-in parameter ranges.

Each property relates the metrics of two related inputs (or of one input
and a metric fed back as an input), so it needs no expected value. Inputs
are drawn from the optimistic-to-pessimistic range of every built-in
parameter, under annual compounding, as ``scenarios.compute_metrics``
binds them.
"""
from __future__ import annotations

from hypothesis import assume, given, settings, strategies as st

from conftest import IRR_NPV_TOLERANCE
from tidalecon.cost_model import ArrayDesign
from tidalecon.scenarios import builtin_parameters, compute_metrics


def _span(name: str) -> tuple[float, float]:
    entry = next(entry for entry in builtin_parameters() if entry.name == name)
    return min(entry.optimistic, entry.pessimistic), max(entry.optimistic, entry.pessimistic)


def _in_range(name: str) -> st.SearchStrategy:
    low, high = _span(name)
    if name == "lifetime":
        return st.integers(int(low), int(high)).map(float)
    return st.floats(low, high)


@st.composite
def projects(draw) -> tuple[ArrayDesign, dict[str, float]]:
    """A design and a value for every built-in parameter, each within its range."""
    n_t = draw(st.integers(1, 20))
    mw_t = draw(st.floats(0.5, 3.0))
    design = ArrayDesign(
        n_t=n_t,
        mw_t=mw_t,
        p_avg_mw=n_t * mw_t * draw(st.floats(0.2, 0.5)),
        lifetime_years=25,  # replaced by the drawn lifetime
    )
    values = {entry.name: draw(_in_range(entry.name)) for entry in builtin_parameters()}
    return design, values


def _capex(design: ArrayDesign, values: dict[str, float]) -> float:
    return values["ca_f"] + values["ca_t"] * design.n_t


def _metric(design: ArrayDesign, values: dict[str, float], name: str) -> float | None:
    return compute_metrics(design, values, (name,))[0][name]


@given(project=projects(), tariffs=st.lists(_in_range("tariff"), min_size=2, max_size=2))
@settings(max_examples=100, deadline=None)
def test_npv_rises_with_tariff(project, tariffs):
    design, values = project
    low, high = sorted(tariffs)
    assume(high - low > 0.01)
    assert _metric(design, dict(values, tariff=low), "npv") < _metric(
        design, dict(values, tariff=high), "npv"
    )


@given(project=projects(), tariff=_in_range("tariff"))
@settings(max_examples=100, deadline=None)
def test_lcoe_does_not_depend_on_tariff(project, tariff):
    design, values = project
    assert repr(_metric(design, values, "lcoe")) == repr(
        _metric(design, dict(values, tariff=tariff), "lcoe")
    )


@given(project=projects(), profile=st.one_of(
    st.none(), st.lists(_in_range("availability"), min_size=30, max_size=30)))
@settings(max_examples=200, deadline=None)
def test_npv_at_tariff_equal_to_lcoe_is_zero(project, profile):
    design, values = project
    if profile is not None:  # a per-year availability over the drawn lifetime
        values = dict(values, availability=tuple(profile[:int(values["lifetime"])]))
    at_lcoe = dict(values, tariff=_metric(design, values, "lcoe"))
    assert abs(_metric(design, at_lcoe, "npv")) <= 1e-9 * _capex(design, values)


# Payback is defined at both CAPEX levels in about a quarter of the draws.
@given(project=projects(), extra=st.floats(0.01, 20.0))
@settings(max_examples=300, deadline=None)
def test_payback_does_not_fall_as_capex_rises(project, extra):
    design, values = project
    before = _metric(design, values, "payback")
    after = _metric(design, dict(values, ca_f=values["ca_f"] + extra), "payback")
    if after is not None:
        assert before is not None and after >= before


@given(project=projects())
@settings(max_examples=100, deadline=None)
def test_npv_at_rate_equal_to_irr_is_zero(project):
    # Annual compounding only: under continuous or periodic compounding the
    # reported IRR is still an annual rate, so this does not hold there yet.
    design, values = project
    rate = _metric(design, values, "irr")
    assume(rate is not None)
    assert abs(_metric(design, dict(values, r=rate), "npv")) < IRR_NPV_TOLERANCE

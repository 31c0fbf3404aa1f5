"""Behaviour every public record class keeps: construction, equality, hashing,
repr, immutability and copying."""
from __future__ import annotations

import copy
import pickle
import sys
import warnings

import pytest

from tidalecon import (
    ArrayDesign,
    BreakEvenSpec,
    CashFlowSchedule,
    Compounding,
    CostBasis,
    CostObservation,
    CostParameters,
    CostSplit,
    DiscountSpec,
    FixedToTurbineRatio,
    ParameterRange,
    ScenarioResult,
    TariffScheme,
)
from tidalecon.cost_estimation import RatioWindowWarning

# Each record with every field given in field order, one field to change and
# a valid new value for it, and the record's exact repr.
RECORDS = {
    "DiscountSpec": (
        DiscountSpec, dict(annual_rate=0.1, mode=Compounding.DISCRETE),
        ("mode", Compounding.CONTINUOUS),
        "DiscountSpec(annual_rate=0.1, mode=<Compounding.DISCRETE: 'discrete'>)"),
    "CashFlowSchedule": (
        CashFlowSchedule, dict(horizon=2, flows=(-10.0, 6.0, 6.5)),
        ("flows", (-10.0, 6.0, 7.0)),
        "CashFlowSchedule(horizon=2, flows=(-10.0, 6.0, 6.5))"),
    "CostParameters": (
        CostParameters, dict(ca_f=9.2, ca_t=3.3, o_f=0.32, o_t=0.15),
        ("o_t", 0.26),
        "CostParameters(ca_f=9.2, ca_t=3.3, o_f=0.32, o_t=0.15)"),
    "ArrayDesign": (
        ArrayDesign, dict(n_t=10, mw_t=1.5, p_avg_mw=4.0, lifetime_years=3,
                          availability=(0.9, 0.95, 1.0), electrical_efficiency=0.95),
        ("n_t", 12),
        "ArrayDesign(n_t=10, mw_t=1.5, p_avg_mw=4.0, lifetime_years=3, "
        "availability=(0.9, 0.95, 1.0), electrical_efficiency=0.95)"),
    "TariffScheme": (
        TariffScheme, dict(t_e=3.0), ("t_e", 150.0), "TariffScheme(t_e=3.0)"),
    "CostObservation": (
        CostObservation, dict(n_t=66.7, cost=1.2, basis=CostBasis.PER_MW, capacity_mw=100.0,
                              currency_rate=1.1),
        ("currency_rate", 1.0),
        "CostObservation(n_t=66.7, cost=1.2, basis=<CostBasis.PER_MW: 'per_mw'>, "
        "capacity_mw=100.0, currency_rate=1.1)"),
    "FixedToTurbineRatio": (
        FixedToTurbineRatio, dict(ratio=3.0), ("ratio", 2.5), "FixedToTurbineRatio(ratio=3.0)"),
    "BreakEvenSpec": (
        BreakEvenSpec, dict(p_be_mw=0.5, ev_mw_per_turbine=0.01),
        ("ev_mw_per_turbine", 0.0),
        "BreakEvenSpec(p_be_mw=0.5, ev_mw_per_turbine=0.01)"),
    "ParameterRange": (
        ParameterRange, dict(name="r", optimistic=0.05, typical=0.1, pessimistic=0.15,
                             units="fraction per year"),
        ("units", "per year"),
        "ParameterRange(name='r', optimistic=0.05, typical=0.1, pessimistic=0.15, "
        "units='fraction per year')"),
    "ScenarioResult": (
        ScenarioResult, dict(label="typical", parameters={"r": 0.1},
                             metrics={"npv": 1.5, "irr": None}, notes={"irr": "no sign change"}),
        ("label", "optimistic"),
        "ScenarioResult(label='typical', parameters={'r': 0.1}, "
        "metrics={'npv': 1.5, 'irr': None}, notes={'irr': 'no sign change'})"),
}
CASES = pytest.mark.parametrize("cls, fields, change, text", RECORDS.values(), ids=RECORDS)


@CASES
def test_keyword_and_positional_construction_agree(cls, fields, change, text):
    record = cls(**fields)
    assert record == cls(*fields.values())
    assert [getattr(record, name) for name in fields] == list(fields.values())


@CASES
def test_equality_and_hash(cls, fields, change, text):
    record = cls(**fields)
    same = cls(**fields)
    name, value = change
    other = cls(**dict(fields, **{name: value}))
    assert record == same and not record != same
    assert record != other and not record == other
    assert record != tuple(fields.values())
    if cls is ScenarioResult:  # its fields are dicts
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)
    else:
        assert hash(record) == hash(same)


def test_records_of_different_classes_with_equal_values_differ():
    assert TariffScheme(3.0) != FixedToTurbineRatio(3.0)
    assert not TariffScheme(3.0) == FixedToTurbineRatio(3.0)


@CASES
def test_repr(cls, fields, change, text):
    assert repr(cls(**fields)) == text


@CASES
def test_fields_cannot_be_set_or_deleted(cls, fields, change, text):
    record = cls(**fields)
    name, value = change
    with pytest.raises(AttributeError):
        setattr(record, name, value)
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert record == cls(**fields)


@CASES
@pytest.mark.parametrize("duplicate", [
    lambda record: pickle.loads(pickle.dumps(record)), copy.copy, copy.deepcopy,
], ids=["pickle", "copy", "deepcopy"])
def test_copies_are_equal(cls, fields, change, text, duplicate):
    record = cls(**fields)
    twin = duplicate(record)
    assert type(twin) is cls and twin == record and repr(twin) == text


@pytest.mark.parametrize("cls, required, spelled", [
    (DiscountSpec, (0.1,), (0.1, Compounding.DISCRETE)),
    (ArrayDesign, (10, 1.5, 4.0, 3), (10, 1.5, 4.0, 3, 1.0, 1.0)),
    (CostObservation, (2.0, 16.8), (2.0, 16.8, CostBasis.TOTAL, None, 1.0)),
    (BreakEvenSpec, (0.5,), (0.5, 0.0)),
], ids=["DiscountSpec", "ArrayDesign", "CostObservation", "BreakEvenSpec"])
def test_defaults(cls, required, spelled):
    assert cls(*required) == cls(*spelled)


def test_ratio_warning_names_the_caller():
    line = sys._getframe().f_lineno + 2
    with pytest.warns(RatioWindowWarning) as caught:
        FixedToTurbineRatio(5.0)
    assert (caught[0].filename, caught[0].lineno) == (__file__, line)


@pytest.mark.parametrize("duplicate", [copy.copy, copy.deepcopy], ids=["copy", "deepcopy"])
def test_copying_an_out_of_window_ratio_warns_no_second_time(duplicate):
    with pytest.warns(RatioWindowWarning):
        ratio = FixedToTurbineRatio(5.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert duplicate(ratio) is ratio
        assert duplicate([ratio])[0] is ratio


def test_unpickling_an_out_of_window_ratio_checks_it_again():
    with pytest.warns(RatioWindowWarning):
        pickled = pickle.dumps(FixedToTurbineRatio(5.0))
    with pytest.warns(RatioWindowWarning, match="ratio 5 outside the supported window"):
        twin = pickle.loads(pickled)
    assert type(twin) is FixedToTurbineRatio and twin.ratio == 5.0


def test_cost_split_is_a_named_pair():
    split = CostSplit(fixed=9.2, per_turbine=3.3)
    assert split == (9.2, 3.3) and tuple(split) == (9.2, 3.3)
    assert (split.fixed, split.per_turbine) == (9.2, 3.3)
    assert CostSplit._fields == ("fixed", "per_turbine")
    assert repr(split) == "CostSplit(fixed=9.2, per_turbine=3.3)"
    assert CostSplit(9.2, 3.3) == split and hash(CostSplit(9.2, 3.3)) == hash(split)

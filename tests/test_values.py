"""The package's value types: records are NamedTuples, validated types are
plain classes whose `__init__` checks and stores each field.  Every value
is immutable once built, and importing the CLI needs neither `dataclasses`
nor `csv`."""

import subprocess
import sys
from functools import cached_property

import numpy as np
import pytest

from moebiusband import bounds
from moebiusband.band import WrinkleConfig, validate
from moebiusband.geom import DEFAULT_TOL
from moebiusband.tpattern import _candidates
from moebiusband.verify import (
    PipelineState,
    TheoremReport,
    boundary_deviation,
    prepare,
    verify_eff,
)


def _fields(value) -> tuple:
    """The declared fields: a record's `_fields`, a class's annotations."""
    return getattr(value, "_fields", None) or tuple(type(value).__annotations__)


@pytest.fixture(scope="module")
def values(tri_band):
    state = prepare(tri_band)
    eff = verify_eff(state)
    line = np.linspace(0.0, 1.0, 200)[:, None] * [2.0, 0.0, 0.0]
    return [
        # records
        DEFAULT_TOL,
        validate(tri_band),
        WrinkleConfig(),
        _candidates(tri_band, DEFAULT_TOL)[0],
        boundary_deviation(state.trapezoid, state.boundary),
        state.pattern,
        eff.checks[0],
        eff,
        # validated types
        tri_band,
        state.pattern.pose,
        state.trapezoid,
        bounds.PerturbedTriangle(np.array([-0.5, 0.0]), np.array([0.5, 0.0]),
                                 np.array([0.0, -1.0])),
        bounds.CurveGraphPair(line),
        state,
    ]


def test_every_value_type_is_covered(values):
    assert len({type(v) for v in values}) == 14


def test_values_are_immutable(values):
    for value in values:
        names = _fields(value)
        assert names, type(value).__name__
        for name in names:
            field = getattr(value, name)
            with pytest.raises(AttributeError):
                setattr(value, name, field)
            with pytest.raises(AttributeError):
                delattr(value, name)
            assert getattr(value, name) is field
        with pytest.raises(AttributeError):
            value.extra = 1


def test_reports_default_to_fresh_details():
    # lip_check writes into the details of the report it made
    for make in (lambda: bounds.MarginReport("x", {}, 1.0, 0.0, 1.0, True),
                 lambda: TheoremReport("x", 2.0, 0.1, True, {}, {}, ())):
        one, two = make(), make()
        assert one.details == {} and one.details is not two.details
    assert TheoremReport("x", 2.0, 0.1, True, {}, {}, ()).notes == ()


def test_pipeline_state_caches_its_properties(tri_band):
    state = prepare(tri_band)
    names = [name for name, attr in vars(PipelineState).items()
             if isinstance(attr, cached_property)]
    assert len(names) == 7
    for name in names:
        assert name not in vars(state)
        value = getattr(state, name)
        assert vars(state)[name] is value and getattr(state, name) is value
        with pytest.raises(AttributeError):
            setattr(state, name, value)


def test_cli_import_loads_no_dataclasses_or_csv():
    # both cost start-up on every call; csv is imported by --csv alone
    code = "import sys, moebiusband.cli; print(sorted({'dataclasses', 'csv'} & set(sys.modules)))"
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "[]\n"

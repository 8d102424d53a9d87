"""The package's value types: records are NamedTuples, validated types are
plain `Frozen` classes whose `__init__` checks each field and stores it
once, which makes an ndarray field read-only.  Every value is immutable
once built.  Importing the CLI loads neither `dataclasses`,
`csv` nor `numpy.random`, and compiles no annotation string."""

import subprocess
import sys
from functools import cached_property

import numpy as np
import pytest

from moebiusband import bounds
from moebiusband.band import WrinkleConfig, validate
from moebiusband.geom import DEFAULT_TOL, Frozen
from moebiusband.tpattern import _candidates
from moebiusband.verify import (
    PipelineState,
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


def test_value_type_arrays_are_read_only(values):
    with_arrays = set()
    for value in values:
        if not isinstance(value, Frozen):
            continue
        for name in _fields(value):
            field = getattr(value, name)
            if isinstance(field, np.ndarray):
                assert not field.flags.writeable, f"{type(value).__name__}.{name}"
                with_arrays.add(type(value).__name__)
    assert with_arrays == {"RuledBand", "RigidMotion", "FlatTrapezoid", "CurveGraphPair"}


def test_perturbed_triangle_vertices_cannot_drift():
    # the triangle measures its vertices once and keeps no reference to
    # them, so writing to the caller's arrays afterwards changes nothing
    p1, p2, q = np.array([-0.5, 0.0]), np.array([0.5, 0.0]), np.array([0.1, -1.0])
    tri = bounds.PerturbedTriangle(p1, p2, q)
    vee = tri.vee
    for vertex in (p1, p2, q):
        vertex[0] = 0.3
    assert tri.vee == vee and tri.delta == 0.1


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
    # each costs start-up on every call; csv is imported by --csv alone, and
    # numpy.random (about 6 MB) by bounds-sweep alone
    code = ("import sys, moebiusband.cli; "
            "print(sorted({'dataclasses', 'csv', 'numpy.random'} & set(sys.modules)))")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "[]\n"


def test_cli_import_compiles_no_annotation_strings():
    # a NamedTuple compiles each field annotation that is a string, as all
    # are under `from __future__ import annotations`: about 1.4 ms of start-up
    code = """
import builtins
import numpy
compiled = []
compile_ = builtins.compile
def counting(source, filename, mode, *args, **kwargs):
    if mode == "eval":
        compiled.append(source)
    return compile_(source, filename, mode, *args, **kwargs)
builtins.compile = counting
import moebiusband.cli
print(compiled)
"""
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "[]\n"

"""The package's frozen records: their arrays are read-only views, so a
record cannot write to them and the caller's own array stays writable."""

import dataclasses

import numpy as np
import pytest

import sgwhiten as sg


def _records(presets, transforms):
    """For each record: a valid caller's array, the field it lands in and
    a function that makes the record from it."""
    filt = presets["A"]
    weight = filt.operators.weight
    return {
        "SampleSequence": (np.zeros(64), "values",
                           lambda x: sg.SampleSequence(values=x)),
        "FeatureSeries": (np.zeros((64, 5)), "coeffs",
                          lambda x: sg.FeatureSeries(coeffs=x, offset=8)),
        "ScenarioTrace": (np.zeros(64), "x", lambda x: sg.ScenarioTrace(
            name="high-white", seed=0, x=x, components={}, pulses=(),
            amplitude=1.0)),
        "AutocorrSequence": (0.5 ** np.arange(8.0), "values",
                             lambda x: sg.AutocorrSequence(values=x)),
        "WeightMatrix": (np.eye(17), "matrix",
                         lambda x: dataclasses.replace(weight, matrix=x)),
        "RegressionOperators": (
            np.array(filt.operators.psi), "psi",
            lambda x: dataclasses.replace(filt.operators, psi=x)),
        "DesignedFilter": (np.array(filt.h), "h",
                           lambda x: dataclasses.replace(filt, h=x)),
        "OrthoTransform": (np.array(transforms["A"].u), "u",
                           lambda x: dataclasses.replace(transforms["A"], u=x)),
        "DetectionReport": (np.zeros(64), "z", lambda x: sg.DetectionReport(
            z=x, z_db=x, decision_db=x, gamma_db=20.0, events=np.arange(3),
            offset=8)),
    }


@pytest.mark.parametrize("name", ["SampleSequence", "FeatureSeries",
                                  "ScenarioTrace", "AutocorrSequence",
                                  "WeightMatrix", "RegressionOperators",
                                  "DesignedFilter", "OrthoTransform",
                                  "DetectionReport"])
def test_record_freezes_a_view_not_the_callers_array(name, presets, transforms):
    x, field, build = _records(presets, transforms)[name]
    record = build(x)
    x[(0,) * x.ndim] = 0.5
    assert x.flags.writeable
    stored = getattr(record, field)
    assert not stored.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        stored[(0,) * stored.ndim] = 1.0

import dataclasses
import json

import numpy as np
import pytest

from handsoff import (
    ControlProblem,
    ControlSignal,
    DimensionMismatch,
    LengthMismatch,
    NonFiniteInput,
    NonpositiveHorizon,
    NonpositiveWeight,
    ParseError,
    PlantModel,
    read_problem,
    validate_problem,
    write_problem,
    write_signal,
)

DOUBLE_INTEGRATOR_DOC = json.dumps({
    "A": [[0.0, 1.0], [0.0, 0.0]],
    "B": [[0.0], [1.0]],
    "x0": [1.0, 0.0],
    "T": 10.0,
    "N": 100,
})


def scalar_problem(**overrides):
    fields = dict(plant=PlantModel(A=[[0.0]], B=[[1.0]]), x0=[1.0], T=1.0, N=10,
                  weights=[1.0])
    fields.update(overrides)
    return ControlProblem(**fields)


def test_validate_accepts_well_formed_problem():
    p = scalar_problem()
    assert validate_problem(p) is p


def test_validate_is_pure():
    p = scalar_problem()
    before = (p.plant.A.copy(), p.x0.copy(), p.weights.copy())
    validate_problem(p)
    validate_problem(p)
    assert np.array_equal(p.plant.A, before[0])
    assert np.array_equal(p.x0, before[1])
    assert np.array_equal(p.weights, before[2])


def test_zero_weight_rejected():
    with pytest.raises(NonpositiveWeight):
        validate_problem(scalar_problem(weights=[0.0]))


def test_negative_weight_rejected():
    with pytest.raises(NonpositiveWeight):
        validate_problem(scalar_problem(weights=[-1.0]))


def test_shape_contradiction_rejected():
    with pytest.raises(DimensionMismatch):
        ControlProblem(plant=PlantModel(A=np.zeros((2, 2)), B=np.zeros((3, 1))),
                       x0=[1.0, 0.0], T=1.0, N=10)


def test_nonsquare_A_rejected():
    with pytest.raises(DimensionMismatch):
        ControlProblem(plant=PlantModel(A=np.zeros((2, 3)), B=np.zeros((2, 1))),
                       x0=[1.0, 0.0], T=1.0, N=10)


@pytest.mark.parametrize("bad_T", [0.0, -1.0])
def test_nonpositive_horizon_rejected(bad_T):
    with pytest.raises(NonpositiveHorizon):
        validate_problem(scalar_problem(T=bad_T))


def test_nonpositive_grid_rejected():
    with pytest.raises(NonpositiveHorizon):
        validate_problem(scalar_problem(N=0))


def test_wrong_x0_length_rejected():
    with pytest.raises(DimensionMismatch):
        validate_problem(scalar_problem(x0=[1.0, 2.0]))


def test_wrong_weights_length_rejected():
    with pytest.raises(DimensionMismatch):
        validate_problem(scalar_problem(weights=[1.0, 2.0]))


def test_non_finite_plant_rejected():
    with pytest.raises(NonFiniteInput):
        scalar_problem(plant=PlantModel(A=[[np.nan]], B=[[1.0]]))


@pytest.mark.parametrize("A, B, error", [
    (np.zeros((2, 3)), np.zeros((2, 1)), DimensionMismatch),  # A not square
    (np.zeros((0, 0)), np.zeros((0, 1)), DimensionMismatch),  # no state
    (np.zeros(2), np.zeros((2, 1)), DimensionMismatch),       # A not 2-D
    (np.zeros((2, 2)), np.zeros((3, 1)), DimensionMismatch),  # B rows != n
    (np.zeros((2, 2)), np.zeros((2, 0)), DimensionMismatch),  # no channel
    (np.zeros((2, 2)), np.zeros(2), DimensionMismatch),       # B not 2-D
    ([[0.0]], [[np.inf]], NonFiniteInput),
])
def test_plant_checks_itself_at_construction(A, B, error):
    with pytest.raises(error):
        PlantModel(A=A, B=B)


def test_read_double_integrator_document():
    p = read_problem(DOUBLE_INTEGRATOR_DOC)
    assert p.plant.n == 2
    assert p.plant.m == 1
    assert p.N == 100
    assert p.T == 10.0
    # omitted weights default to 1 per channel
    assert np.array_equal(p.weights, [1.0])


def test_read_missing_field_names_the_field():
    doc = json.loads(DOUBLE_INTEGRATOR_DOC)
    del doc["T"]
    with pytest.raises(ParseError) as info:
        read_problem(json.dumps(doc))
    assert info.value.field == "T"


def test_read_nonsquare_A_is_dimension_mismatch():
    doc = json.loads(DOUBLE_INTEGRATOR_DOC)
    doc["A"] = [[0.0, 1.0]]
    with pytest.raises(DimensionMismatch):
        read_problem(json.dumps(doc))


def test_read_rejects_invalid_json():
    with pytest.raises(ParseError):
        read_problem("{not json")


def _with(field, value):
    doc = json.loads(DOUBLE_INTEGRATOR_DOC)
    doc[field] = value
    return doc


@pytest.mark.parametrize("doc, field", [
    ([1], "<document>"),                                    # not an object
    (_with("T", "10"), "T"),                                # T not a number
    (_with("A", [[0.0, float("nan")], [0.0, 0.0]]), "A"),   # dumped as a NaN literal
])
def test_read_rejects_malformed_document(doc, field):
    with pytest.raises(ParseError) as info:
        read_problem(json.dumps(doc))
    assert info.value.field == field


def test_read_rejects_non_integer_N():
    doc = json.loads(DOUBLE_INTEGRATOR_DOC)
    doc["N"] = 10.5
    with pytest.raises(ParseError) as info:
        read_problem(json.dumps(doc))
    assert info.value.field == "N"


def test_read_rejects_ragged_matrix():
    doc = json.loads(DOUBLE_INTEGRATOR_DOC)
    doc["A"] = [[0.0, 1.0], [0.0]]
    with pytest.raises(ParseError):
        read_problem(json.dumps(doc))


def test_problem_roundtrip_is_bit_exact():
    doc = json.dumps({
        "A": [[0.1, -2.0 / 3.0], [7.5, 0.3]],
        "B": [[1.0e-7], [3.14159265358979]],
        "x0": [0.1, -0.2],
        "T": 7.5,
        "N": 33,
        "weights": [2.5],
    })
    p1 = read_problem(doc)
    p2 = read_problem(write_problem(p1))
    assert np.array_equal(p1.plant.A, p2.plant.A)
    assert np.array_equal(p1.plant.B, p2.plant.B)
    assert np.array_equal(p1.x0, p2.x0)
    assert p1.T == p2.T and p1.N == p2.N
    assert np.array_equal(p1.weights, p2.weights)


def test_signal_length_checked_at_construction():
    with pytest.raises(LengthMismatch):
        ControlSignal(U=[0.5, 0.5], h=1.0, m=1, N=1)
    with pytest.raises(NonFiniteInput):
        ControlSignal(U=[np.inf], h=1.0, m=1, N=1)


def test_signal_stores_its_support_and_rebuilds_U_bit_exactly():
    U = np.array([0.0, -1.0, 0.25, -0.0, 0.0, 1e-300, 1.0, 0.0])
    s = ControlSignal(U=U, h=0.5, m=2, N=4)
    assert s.support.tolist() == [1, 2, 3, 5, 6]
    assert s.U.tobytes() == U.tobytes()
    assert np.signbit(s.U[3])
    assert not s.U.flags.writeable
    with pytest.raises(ValueError):
        s.U[0] = 1.0
    assert np.array_equal(s.as_steps(), U.reshape(4, 2))
    V = np.zeros(8)
    V[7] = 0.5
    t = dataclasses.replace(s, U=V)
    assert (t.h, t.m, t.N) == (0.5, 2, 4)
    assert t.U.tobytes() == V.tobytes() and t.support.tolist() == [7]
    assert s.U.tobytes() == U.tobytes()
    with pytest.raises(LengthMismatch):
        dataclasses.replace(s, U=np.zeros(7))


def test_write_signal_minimal_case():
    s = ControlSignal(U=[0.5], h=1.0, m=1, N=1)
    text = write_signal(s, np.array([[1.0], [1.5]]))
    lines = text.strip().split("\n")
    assert lines[0] == "t,u1,x1"
    assert len(lines) == 3  # header + 2 grid points
    assert lines[1] == "0,0.5,1"
    # final row repeats the last control value
    assert lines[2] == "1,0.5,1.5"


def test_write_signal_empty_trajectory_rejected():
    s = ControlSignal(U=[0.5], h=1.0, m=1, N=1)
    with pytest.raises(LengthMismatch):
        write_signal(s, np.array([]))


def test_write_signal_row_count_mismatch_rejected():
    s = ControlSignal(U=[0.5, 0.5], h=1.0, m=1, N=2)
    with pytest.raises(LengthMismatch):
        write_signal(s, np.zeros((4, 1)))


def test_write_signal_uses_17_significant_digits():
    s = ControlSignal(U=[1.0 / 3.0], h=0.1, m=1, N=1)
    text = write_signal(s, np.array([[2.0 / 3.0], [0.0]]))
    assert "0.33333333333333331" in text
    assert "0.66666666666666663" in text

"""Unit tests for primitive gate evaluation."""

import itertools

import pytest

from repro.atpg.podem import _CAN0, _CAN1, _DECODE, _logic_to_int
from repro.logic import Logic
from repro.netlist import Gate, GateType, Netlist, evaluate_gate, noncontrolling_value
from repro.simulation import NodeKind, build_model
from repro.simulation.parallel_sim import plane_evaluator


ZERO, ONE, X = Logic.ZERO, Logic.ONE, Logic.X

def _legal_arities(gtype):
    upper = 5 if gtype.max_inputs is None else min(gtype.max_inputs, 5)
    return range(gtype.min_inputs, upper + 1)


#: Every gate type at every legal arity up to 5.
GATE_ARITIES = [(gtype, arity) for gtype in GateType for arity in _legal_arities(gtype)]


@pytest.mark.parametrize(
    "gtype, arity", GATE_ARITIES, ids=[f"{g.value}{k}" for g, k in GATE_ARITIES]
)
def test_plane_evaluator_matches_evaluate_gate_exhaustively(gtype, arity):
    """The fast dual-rail semantics (and PODEM's 0/1/X encoding around it)
    agree with the scalar oracle on every {0, 1, X} input combination."""
    combos = list(itertools.product((ZERO, ONE, X), repeat=arity))
    expected = [evaluate_gate(gtype, list(combo)) for combo in combos]
    if arity == 0:
        # TIE cells never reach an evaluator: the model lowers them to constants.
        netlist = Netlist("tie")
        netlist.add_gate(Gate("g", gtype, (), "y"))
        netlist.add_output("y")
        node = build_model(netlist).nodes[0]
        assert node.kind is (NodeKind.CONST0 if expected[0] is ZERO else NodeKind.CONST1)
        return
    # All 3^k combinations side by side in one plane pair, one bit each.
    in0 = [0] * arity
    in1 = [0] * arity
    for bit, combo in enumerate(combos):
        for pin, value in enumerate(combo):
            in0[pin] |= (value is not ONE) << bit
            in1[pin] |= (value is not ZERO) << bit
    evaluate = plane_evaluator(gtype, arity)
    out0, out1 = evaluate(in0, in1)
    decoded = {(1, 0): ZERO, (0, 1): ONE, (1, 1): X}
    for bit, (combo, want) in enumerate(zip(combos, expected)):
        got = decoded.get((out0 >> bit & 1, out1 >> bit & 1))
        assert got is want, (combo, got, want)
        # PODEM's path: 0/1/X integers encoded onto 1-bit planes and back.
        values = [_logic_to_int(value) for value in combo]
        p0, p1 = evaluate([_CAN0[v] for v in values], [_CAN1[v] for v in values])
        assert _DECODE[p0 | p1 << 1] == _logic_to_int(want), combo


class TestEvaluateGate:
    @pytest.mark.parametrize(
        "gtype, inputs, expected",
        [
            (GateType.AND, [ONE, ONE], ONE),
            (GateType.AND, [ONE, ZERO], ZERO),
            (GateType.AND, [X, ZERO], ZERO),
            (GateType.AND, [X, ONE], X),
            (GateType.NAND, [ONE, ONE], ZERO),
            (GateType.NAND, [ZERO, X], ONE),
            (GateType.OR, [ZERO, ZERO], ZERO),
            (GateType.OR, [X, ONE], ONE),
            (GateType.OR, [X, ZERO], X),
            (GateType.NOR, [ZERO, ZERO], ONE),
            (GateType.XOR, [ONE, ZERO], ONE),
            (GateType.XOR, [ONE, ONE], ZERO),
            (GateType.XOR, [X, ONE], X),
            (GateType.XNOR, [ONE, ONE], ONE),
            (GateType.NOT, [ONE], ZERO),
            (GateType.BUF, [X], X),
            (GateType.TIE0, [], ZERO),
            (GateType.TIE1, [], ONE),
        ],
    )
    def test_truth_tables(self, gtype, inputs, expected):
        assert evaluate_gate(gtype, inputs) is expected

    def test_three_input_gates(self):
        assert evaluate_gate(GateType.AND, [ONE, ONE, ONE]) is ONE
        assert evaluate_gate(GateType.OR, [ZERO, ZERO, ONE]) is ONE
        assert evaluate_gate(GateType.XOR, [ONE, ONE, ONE]) is ONE

    def test_mux_select_known(self):
        assert evaluate_gate(GateType.MUX2, [ZERO, ONE, ZERO]) is ONE
        assert evaluate_gate(GateType.MUX2, [ONE, ONE, ZERO]) is ZERO

    def test_mux_select_unknown(self):
        assert evaluate_gate(GateType.MUX2, [X, ONE, ONE]) is ONE
        assert evaluate_gate(GateType.MUX2, [X, ONE, ZERO]) is X

    def test_z_treated_as_x(self):
        assert evaluate_gate(GateType.AND, [Logic.Z, ONE]) is X
        assert evaluate_gate(GateType.AND, [Logic.Z, ZERO]) is ZERO

    def test_arity_errors(self):
        with pytest.raises(ValueError):
            evaluate_gate(GateType.NOT, [ONE, ONE])
        with pytest.raises(ValueError):
            evaluate_gate(GateType.AND, [ONE])
        with pytest.raises(ValueError):
            evaluate_gate(GateType.MUX2, [ONE, ONE])


class TestGateMetadata:
    def test_controlling_values(self):
        assert GateType.AND.controlling_value is ZERO
        assert GateType.NAND.controlling_value is ZERO
        assert GateType.OR.controlling_value is ONE
        assert GateType.NOR.controlling_value is ONE
        assert GateType.XOR.controlling_value is None

    def test_noncontrolling_values(self):
        assert noncontrolling_value(GateType.AND) is ONE
        assert noncontrolling_value(GateType.NOR) is ZERO
        assert noncontrolling_value(GateType.XOR) is None

    def test_inverting(self):
        assert GateType.NAND.is_inverting
        assert GateType.NOT.is_inverting
        assert not GateType.AND.is_inverting
        assert not GateType.MUX2.is_inverting

    def test_arity_metadata(self):
        assert GateType.MUX2.min_inputs == GateType.MUX2.max_inputs == 3
        assert GateType.AND.max_inputs is None
        assert GateType.TIE0.min_inputs == 0

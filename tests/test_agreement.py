"""Classical agreement phase: messages, verification, decision table."""

from __future__ import annotations

import copy
import json
import math
import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qutrit_dba.agreement import (
    BOT,
    AgreementConfig,
    ConsistencyVerdict,
    Decision,
    DecisionKind,
    Plan,
    PositionMessage,
    TableCase,
    VerdictReason,
    build_position_message,
    evaluate_conditions,
    final_decision,
    forward_message,
    run_agreement,
    table_case,
    transcript_to_json,
    verify_against_list,
)
from qutrit_dba.distribution import CorrelatedLists, sample_correlated_lists
from qutrit_dba.strategies import (
    GeneralId,
    honest,
    traitor_a_conflicting,
    traitor_b_forge_forward,
    traitor_c_forge_forward,
)

OK = ConsistencyVerdict(True)
BAD = ConsistencyVerdict(False, VerdictReason.VALUE_MISMATCH)
CFG = AgreementConfig()


# --- message primitives --------------------------------------------------------


def test_position_message_validation():
    PositionMessage(Plan.ATTACK, (0, 3, 7))
    with pytest.raises(ValueError):
        PositionMessage(Plan.ATTACK, (3, 3))
    with pytest.raises(ValueError):
        PositionMessage(Plan.ATTACK, (5, 2))
    with pytest.raises(ValueError):
        PositionMessage(Plan.ATTACK, (-1, 2))


def test_build_position_message_selects_plan_positions():
    l_a = (0, 1, 2, 0, 1, 2, 0)
    msg = build_position_message(l_a, Plan.ATTACK)
    assert msg.positions == (0, 3, 6)
    msg1 = build_position_message(l_a, Plan.RETREAT)
    assert msg1.positions == (1, 4)
    assert len(msg1) == 2


def test_consistency_verdict_validation():
    with pytest.raises(ValueError):
        ConsistencyVerdict(True, VerdictReason.VALUE_MISMATCH)
    with pytest.raises(ValueError):
        ConsistencyVerdict(False)


def test_agreement_config_validation():
    with pytest.raises(ValueError):
        AgreementConfig(expected_fraction=0.0)
    with pytest.raises(ValueError):
        AgreementConfig(expected_fraction=1.0)
    with pytest.raises(ValueError):
        AgreementConfig(length_tolerance=0.0)


def test_length_bounds_frozen_values():
    """Window at L=400: the six-sigma floor (51.96) beats the relative
    tolerance (25); at L=10000 the relative tolerance (625) dominates."""
    low, high = CFG.length_bounds(400)
    sigma = math.sqrt(400 * 0.25 * 0.75)
    assert abs(low - (100 - 6 * sigma)) < 1e-9
    assert abs(high - (100 + 6 * sigma)) < 1e-9
    assert abs(low - 48.0385) < 1e-3

    low, high = CFG.length_bounds(10000)
    assert low == 2500 - 625
    assert high == 2500 + 625


# --- verification ----------------------------------------------------------------


def test_verify_accepts_honest_message():
    lists = sample_correlated_lists(400, np.random.default_rng(0))
    msg = build_position_message(lists.list_a, Plan.ATTACK)
    assert verify_against_list(msg, lists.list_b, 400, CFG).consistent
    assert verify_against_list(msg, lists.list_c, 400, CFG).consistent


def test_verify_flags_wrong_value():
    own = (0,) * 400
    msg = PositionMessage(Plan.RETREAT, tuple(range(100)))
    verdict = verify_against_list(msg, own, 400, CFG)
    assert verdict.reason is VerdictReason.VALUE_MISMATCH


def test_verify_flags_out_of_range_position_as_value_mismatch():
    own = (1,) * 400
    msg = PositionMessage(Plan.RETREAT, tuple(range(60, 160)) + (400,))
    with_oob = verify_against_list(msg, own + (1,), 401, CFG)
    assert with_oob.consistent  # position 400 exists for L=401
    verdict = verify_against_list(msg, own, 400, CFG)
    assert verdict.reason is VerdictReason.VALUE_MISMATCH


def test_verify_checks_value_before_length():
    own = (0,) * 400
    three_wrong = PositionMessage(Plan.RETREAT, (1, 2, 3))
    assert verify_against_list(three_wrong, own, 400, CFG).reason is (
        VerdictReason.VALUE_MISMATCH
    )
    three_right = PositionMessage(Plan.ATTACK, (1, 2, 3))
    assert verify_against_list(three_right, own, 400, CFG).reason is (
        VerdictReason.LENGTH_TOO_SHORT
    )
    too_many = PositionMessage(Plan.ATTACK, tuple(range(200)))
    assert verify_against_list(too_many, own, 400, CFG).reason is (
        VerdictReason.LENGTH_TOO_LONG
    )


def test_forward_message_passes_or_bots():
    msg = PositionMessage(Plan.ATTACK, (1, 2))
    content, forwarded = forward_message(OK, msg)
    assert content is Plan.ATTACK and forwarded.positions == (1, 2)
    content, forwarded = forward_message(BAD, msg)
    assert content is BOT and forwarded is None


# --- decision table ----------------------------------------------------------------


def test_table_cases_exhaustive():
    p0, p1 = Plan.ATTACK, Plan.RETREAT
    assert table_case((p0, OK), (p0, OK)) is TableCase.IIA
    assert table_case((p0, OK), (p1, OK)) is TableCase.IIB
    assert table_case((p0, OK), (BOT, None)) is TableCase.IIC
    assert table_case((p0, OK), (p1, BAD)) is TableCase.IID
    assert table_case((p0, BAD), (p1, OK)) is TableCase.IIE
    assert table_case((p0, BAD), (BOT, None)) is TableCase.IIF
    assert table_case((p0, BAD), (p1, BAD)) is TableCase.BOTH_INCONSISTENT


def test_table_case_input_validation():
    with pytest.raises(ValueError):
        table_case((BOT, OK), (Plan.ATTACK, OK))
    with pytest.raises(ValueError):
        table_case((Plan.ATTACK, OK), (BOT, OK))
    with pytest.raises(ValueError):
        table_case((Plan.ATTACK, OK), (Plan.ATTACK, None))


def test_final_decisions_per_case():
    p0, p1 = Plan.ATTACK, Plan.RETREAT
    cfg = AgreementConfig(fallback_plan=Plan.RETREAT)
    assert final_decision((p0, OK), (p0, OK), cfg) == Decision.follow(p0)
    assert final_decision((p0, OK), (p1, OK), cfg) == Decision.follow(p1)  # fallback
    assert final_decision((p0, OK), (BOT, None), cfg) == Decision.follow(p0)
    assert final_decision((p0, OK), (p1, BAD), cfg) == Decision.follow(p0)
    assert final_decision((p1, BAD), (p0, OK), cfg) == Decision.follow(p0)
    assert final_decision((p0, BAD), (BOT, None), cfg) == Decision.follow(p1)
    assert final_decision((p0, BAD), (p1, BAD), cfg) == Decision.abort()


def test_decision_validation_and_repr():
    assert repr(Decision.follow(Plan.ATTACK)) == "Follow(0)"
    assert repr(Decision.abort()) == "Abort"
    with pytest.raises(ValueError):
        Decision(DecisionKind.FOLLOW)
    with pytest.raises(ValueError):
        Decision(DecisionKind.ABORT, Plan.ATTACK)


# --- full agreement runs --------------------------------------------------------------


def test_honest_agreement_follows_commander():
    lists = sample_correlated_lists(400, np.random.default_rng(1))
    t = run_agreement(lists, Plan.ATTACK)
    assert t.lieutenant_b.case is TableCase.IIA
    assert t.lieutenant_c.case is TableCase.IIA
    for decision in t.decisions().values():
        assert decision == Decision.follow(Plan.ATTACK)
    assert evaluate_conditions(t) == (True, True)


@settings(max_examples=30)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    length=st.integers(min_value=30, max_value=300),
    plan=st.sampled_from([Plan.ATTACK, Plan.RETREAT]),
)
def test_honest_agreement_complete_for_any_lists(seed, length, plan):
    """Completeness: messages built from honestly correlated lists always
    verify, whatever the length and seed."""
    lists = sample_correlated_lists(length, np.random.default_rng(seed))
    t = run_agreement(lists, plan)
    assert t.lieutenant_b.commander_verdict.consistent
    assert t.lieutenant_c.commander_verdict.consistent
    assert t.lieutenant_b.case is TableCase.IIA
    assert evaluate_conditions(t) == (True, True)
    for decision in t.decisions().values():
        assert decision == Decision.follow(plan)


def test_conflicting_commander_drives_fallback():
    lists = sample_correlated_lists(400, np.random.default_rng(2))
    t = run_agreement(lists, Plan.ATTACK, adversary=traitor_a_conflicting())
    assert t.lieutenant_b.commander_content is Plan.ATTACK
    assert t.lieutenant_c.commander_content is Plan.RETREAT
    assert t.lieutenant_b.case is TableCase.IIB
    assert t.lieutenant_c.case is TableCase.IIB
    assert t.lieutenant_b.decision == Decision.follow(CFG.fallback_plan)
    assert t.lieutenant_c.decision == Decision.follow(CFG.fallback_plan)
    assert evaluate_conditions(t) == (True, True)  # validity vacuous


def test_conflicting_commander_orientation_follows_plan():
    lists = sample_correlated_lists(400, np.random.default_rng(3))
    t = run_agreement(lists, Plan.RETREAT, adversary=traitor_a_conflicting())
    assert t.lieutenant_b.commander_content is Plan.RETREAT
    assert t.lieutenant_c.commander_content is Plan.ATTACK
    assert t.decision_a == Decision.follow(Plan.RETREAT)


def test_forging_lieutenant_b_is_caught():
    lists = sample_correlated_lists(400, np.random.default_rng(4))
    t = run_agreement(
        lists,
        Plan.ATTACK,
        adversary=traitor_b_forge_forward(),
        rng=np.random.default_rng(5),
    )
    assert t.lieutenant_c.received_content is Plan.RETREAT
    assert t.lieutenant_c.received_verdict.reason is VerdictReason.VALUE_MISMATCH
    assert t.lieutenant_c.case is TableCase.IID
    assert t.lieutenant_c.decision == Decision.follow(Plan.ATTACK)
    assert t.lieutenant_b.decision == Decision.follow(Plan.RETREAT)  # the lie
    assert evaluate_conditions(t) == (True, True)


def test_forging_lieutenant_c_is_caught():
    lists = sample_correlated_lists(400, np.random.default_rng(6))
    t = run_agreement(
        lists,
        Plan.RETREAT,
        adversary=traitor_c_forge_forward(),
        rng=np.random.default_rng(7),
    )
    assert t.lieutenant_b.received_content is Plan.ATTACK
    assert t.lieutenant_b.received_verdict.reason is VerdictReason.VALUE_MISMATCH
    assert t.lieutenant_b.case is TableCase.IID
    assert t.lieutenant_b.decision == Decision.follow(Plan.RETREAT)
    assert evaluate_conditions(t) == (True, True)


@pytest.mark.parametrize(
    "strategy_factory",
    [honest, traitor_a_conflicting, traitor_b_forge_forward, traitor_c_forge_forward],
)
def test_agreement_conditions_hold_across_seeds(strategy_factory):
    """Soundness sweep: both conditions on every strategy and seed."""
    for seed in range(200):
        lists = sample_correlated_lists(400, np.random.default_rng(seed))
        t = run_agreement(
            lists,
            Plan.ATTACK,
            adversary=strategy_factory(),
            rng=np.random.default_rng(seed + 1),
        )
        assert evaluate_conditions(t) == (True, True)


def test_evaluate_conditions_detects_disagreement():
    """The evaluator itself must fail transcripts where loyal decisions split."""
    lists = sample_correlated_lists(100, np.random.default_rng(8))
    t = run_agreement(lists, Plan.ATTACK)
    bad_b = replace(t.lieutenant_b, decision=Decision.follow(Plan.RETREAT))
    broken = replace(t, lieutenant_b=bad_b)
    broadcast, validity = evaluate_conditions(broken)
    assert not broadcast
    assert not validity


def test_evaluate_conditions_accepts_common_abort():
    lists = sample_correlated_lists(100, np.random.default_rng(9))
    t = run_agreement(lists, Plan.ATTACK)
    aborted = replace(
        t,
        decision_a=Decision.abort(),
        lieutenant_b=replace(t.lieutenant_b, decision=Decision.abort()),
        lieutenant_c=replace(t.lieutenant_c, decision=Decision.abort()),
    )
    assert evaluate_conditions(aborted) == (True, True)


# --- export -----------------------------------------------------------------------


def test_transcript_json_structure():
    lists = sample_correlated_lists(60, np.random.default_rng(10))
    t = run_agreement(lists, Plan.ATTACK, adversary=traitor_a_conflicting())
    data = json.loads(transcript_to_json(t))
    assert data["commander_plan"] == 0
    assert data["traitor"] == "A"
    assert [e["edge"] for e in data["edges"]] == ["A->B", "A->C", "B->C", "C->B"]
    assert data["edges"][0]["content"] == 0
    assert data["edges"][1]["content"] == 1
    assert data["cases"] == {"B": "iib", "C": "iib"}
    assert data["decisions"]["B"] == {"kind": "follow", "plan": 1}
    # byte-identical for identical transcripts
    assert transcript_to_json(t) == transcript_to_json(t)


# --- array storage: input contract, loop references, equality, export ----------


@pytest.mark.parametrize(
    "positions",
    [(-1,), (2, 2**70), (2**70,), np.array([-1, 2]), np.array([2**64 - 1], dtype=np.uint64),
     (float("inf"),), (None,), ((0, 1),)],
)
def test_position_message_rejects_bad_positions_with_value_error(positions):
    with pytest.raises(ValueError):
        PositionMessage(Plan.ATTACK, positions)


@pytest.mark.parametrize(
    "positions",
    [(0, 3, 6), [0, 3, 6], range(0, 9, 3), np.array([0, 3, 6]),
     np.array([0, 3, 6], dtype=np.uint8), (np.int64(0), np.int64(3), np.int64(6))],
)
def test_position_message_positions_read_back_as_plain_ints(positions):
    msg = PositionMessage(Plan.ATTACK, positions)
    assert msg.positions == (0, 3, 6)
    assert all(type(j) is int for j in msg.positions)
    assert len(msg) == 3
    assert (msg == PositionMessage(Plan.ATTACK, (0, 3, 6))) is True
    assert (msg != PositionMessage(Plan.RETREAT, (0, 3, 6))) is True
    assert hash(msg) == hash(PositionMessage(Plan.ATTACK, (0, 3, 6)))


def test_position_message_owns_a_frozen_copy():
    source = np.array([1, 2])
    msg = PositionMessage(Plan.ATTACK, source)
    source[0] = 0  # the caller's array stays writable and the message keeps its own
    assert msg.positions == (1, 2)
    assert PositionMessage(Plan.ATTACK, ()).positions == ()
    with pytest.raises(ValueError):
        msg.indices[0] = 5
    with pytest.raises(AttributeError):
        msg.plan = Plan.RETREAT


def _loop_positions(l, plan):
    # the loop form of step (i), kept as the reference for the array form
    return tuple(j for j, v in enumerate(l) if v == int(plan))


def _loop_verdict(positions, plan, own, L, cfg):
    # the loop form of step (ia): values first, then the length window
    for j in positions:
        if j >= L or own[j] != int(plan):
            return ConsistencyVerdict(False, VerdictReason.VALUE_MISMATCH)
    low, high = cfg.length_bounds(L)
    if len(positions) < low:
        return ConsistencyVerdict(False, VerdictReason.LENGTH_TOO_SHORT)
    if len(positions) > high:
        return ConsistencyVerdict(False, VerdictReason.LENGTH_TOO_LONG)
    return ConsistencyVerdict(True)


def test_build_and_verify_match_the_loop_reference():
    rng = np.random.default_rng(21)
    for trial in range(60):
        length = int(rng.integers(1, 400))
        lists = sample_correlated_lists(length, rng)
        for plan in Plan:
            msg = build_position_message(lists.values[0], plan)
            assert msg.positions == _loop_positions(lists.list_a, plan)
            assert build_position_message(lists.list_a, plan) == msg
            # honest, dropped, foreign and past-the-end positions
            candidates = [msg.positions, msg.positions[: len(msg) // 2]]
            picked = rng.choice(length + 3, size=min(length, 40), replace=False)
            candidates.append(tuple(sorted(int(j) for j in picked)))
            for positions in candidates:
                for own in (lists.list_b, lists.list_c):
                    for L in (length, length - 1):
                        got = verify_against_list(PositionMessage(plan, positions), own, L, CFG)
                        assert got == _loop_verdict(positions, plan, own, L, CFG)


def test_forward_passes_the_received_message_itself():
    msg = PositionMessage(Plan.RETREAT, (1, 4))
    assert forward_message(OK, msg)[1] is msg


def _transcript_pair(plan):
    lists = sample_correlated_lists(400, np.random.default_rng(22))

    def run(p):
        return run_agreement(lists, p, traitor_b_forge_forward(), np.random.default_rng(23))

    return run(plan), run(plan), run(Plan(1 - plan))


def test_transcripts_compare_as_plain_bools():
    first, again, other = _transcript_pair(Plan.ATTACK)
    assert (first == again) is True
    assert (first != again) is False
    assert (first != other) is True
    # the pair a traced benchmark operation returns, compared the same way
    pair = (first, evaluate_conditions(first))
    assert (pair != (again, evaluate_conditions(again))) is False
    assert pickle.loads(pickle.dumps(first)) == first
    assert copy.deepcopy(first) == first


@pytest.mark.parametrize(
    "strategy_factory",
    [honest, traitor_a_conflicting, traitor_b_forge_forward, traitor_c_forge_forward],
)
@pytest.mark.parametrize("plan", [Plan.ATTACK, Plan.RETREAT])
def test_transcript_json_same_for_tuple_and_array_lists(strategy_factory, plan):
    sampled = sample_correlated_lists(300, np.random.default_rng(24))
    from_tuples = CorrelatedLists(sampled.list_a, sampled.list_b, sampled.list_c)
    from_arrays = CorrelatedLists(*(np.array(row, dtype=np.int64) for row in sampled.values))
    texts = {
        transcript_to_json(
            run_agreement(lists, plan, strategy_factory(), np.random.default_rng(25))
        )
        for lists in (sampled, from_tuples, from_arrays)
    }
    assert len(texts) == 1

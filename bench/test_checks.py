"""Each correctness check of the benchmark passes on real outputs and fails
on a deliberately corrupted copy of them.

    python3 -m pytest bench/test_checks.py
"""

import dataclasses
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

qd = run.import_package()

ROUNDS = 12


@pytest.fixture(scope="module")
def mix():
    workload = run.make_workload(qd, "scenario_mix", 5)
    kept = [
        workload.keep(label, r, call())
        for r in range(ROUNDS)
        for label, call in workload.ops(r)
    ]
    return workload, kept


@pytest.fixture(scope="module")
def agreement_ops():
    workload = run.make_workload(qd, "agreement_long", 5)
    return workload, [(label, call()) for label, call in workload.ops(0)]


def corrupt(kept, scenario, change, count=None):
    """Apply ``change`` to the first ``count`` trials of one scenario."""
    out, done = [], 0
    for label, t in kept:
        if label == scenario and (count is None or done < count):
            t = change(t)
            done += 1
        out.append((label, t))
    return out


def test_real_trials_pass(mix):
    workload, kept = mix
    assert workload.problems(kept) == []


def _set(**fields):
    return lambda t: dataclasses.replace(t, **fields)


# (scenario, corruption, trials corrupted (None: all), expected problem)
TRIAL_CORRUPTIONS = [
    ("honest", lambda t: dataclasses.replace(t, attempts=2 * t.attempts), None, "yield"),
    ("traitor_b", lambda t: dataclasses.replace(
        t, combo_counts={**t.combo_counts, "012": 1}), 1, "combinations outside"),
    ("traitor_c", lambda t: dataclasses.replace(t, combo_counts={
        **t.combo_counts, "000": 0, "111": t.combo_counts["111"] + t.combo_counts["000"]}),
     None, "combination 000"),
    ("false_report", lambda t: dataclasses.replace(t, checked=t.valid_runs), None, "checked"),
    ("traitor_a", _set(inconsistencies=1), 1, "inconsistencies"),
    ("honest", _set(tampering_detected=True), 1, "tampering detected"),
    ("reveal_liar", lambda t: dataclasses.replace(t, traitor_last=t.checked), None, "traitor last"),
    ("intercept_resend", _set(tampering_detected=False), 1, "missed tampering"),
    ("kraus_attack", _set(tampering_detected=False), 1, "missed tampering"),
    ("traitor_c", _set(broadcast=False), 1, "broadcast"),
]


@pytest.mark.parametrize("scenario, change, count, expect", TRIAL_CORRUPTIONS)
def test_corrupted_trials_fail(mix, scenario, change, count, expect):
    workload, kept = mix
    problems = workload.problems(corrupt(kept, scenario, change, count))
    assert any(expect in p for p in problems), problems


def test_stopping_rule_is_allowed_for():
    # 12 attempts per valid run is the honest mean; the stopping rule moves
    # the acceptance window, it does not reject the mean itself
    assert checks.stopped_yield_ok(10_000, 120_000, Fraction(1, 12))
    assert not checks.stopped_yield_ok(10_000, 110_000, Fraction(1, 12))
    assert not checks.stopped_yield_ok(10_000, 130_000, Fraction(1, 12))


def test_honest_theory():
    attempt_yield, combos = checks.honest_theory()
    assert attempt_yield == Fraction(2, 8) * Fraction(4, 12)
    assert sorted(combos) == list(checks.VALID_COMBOS)
    assert set(combos.values()) == {Fraction(1, 4)}


def test_real_agreement_passes(agreement_ops):
    workload, ops = agreement_ops
    assert workload.problems([workload.keep(label, 0, out) for label, out in ops]) == []


def _lieutenant(transcript, general, **fields):
    name = f"lieutenant_{general.lower()}"
    record = dataclasses.replace(getattr(transcript, name), **fields)
    return dataclasses.replace(transcript, **{name: record})


@pytest.mark.parametrize(
    "label, change, expect",
    [
        ("honest/0", lambda t: _lieutenant(t, "C", case=qd.TableCase.IIB), "row iib"),
        ("traitor_a/1", lambda t: _lieutenant(t, "B", decision=qd.Decision.follow(0)),
         "expected Follow(1)"),
        ("traitor_b/0", lambda t: _lieutenant(t, "C", case=qd.TableCase.IIE), "row iie"),
        ("traitor_c/1", lambda t: _lieutenant(t, "B", decision=qd.Decision.abort()),
         "expected Follow(1)"),
        ("honest/1", lambda t: _lieutenant(t, "B", commander_message=qd.PositionMessage(
            t.lieutenant_b.commander_message.plan,
            t.lieutenant_b.commander_message.positions[1:])), "names"),
    ],
)
def test_corrupted_agreement_fails(agreement_ops, label, change, expect):
    workload, ops = agreement_ops
    transcript, conditions = dict(ops)[label]
    problems = workload.keep(label, 0, (change(transcript), conditions))
    assert any(expect in p for p in problems), problems


def test_broken_conditions_fail(agreement_ops):
    workload, ops = agreement_ops
    transcript, _ = dict(ops)["honest/0"]
    assert workload.keep("honest/0", 0, (transcript, (True, False)))


def test_traced_run_matches_and_counts():
    workload = run.make_workload(qd, "scenario_mix", 9)
    t = tracer.Tracer()
    kept, mismatches = [], 0
    for op_id, (label, call) in enumerate(workload.ops(1)):
        plain = call()
        traced = t.run_op(op_id, call)
        mismatches += traced != plain
        kept.append((label, traced))
    # wrappers are gone again once the operation returns
    assert not hasattr(qd.harness.run_trial, "__wrapped__")
    assert "qutrit_dba.distribution.hooks_for_strategy" in t.bindings
    assert checks.check_traced(mismatches, len(kept)) == []
    counted = {
        "attempts_total": t.totals()["distribution.execute_run"][0],
        "valid_total": t.counters["valid_total"],
    }
    aggregates = workload.aggregates(kept)
    assert checks.check_counted(counted, aggregates) == []

    label, outcome = kept[0]
    changed = dataclasses.replace(outcome, attempts=outcome.attempts + 1)
    assert checks.check_traced(int(changed != outcome), 1)
    assert checks.check_counted(dict(counted, valid_total=counted["valid_total"] - 1), aggregates)

"""Attack hooks, dishonest announcements, and the asymmetry detector."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from qutrit_dba.adversaries import (
    AttackHook,
    _likely_sum_mod3,
    adaptive_basis_announcer,
    asymmetry_detected,
    channel_from_name,
    false_detection_report,
    forged_forward,
    hooks_for_strategy,
    make_intercept_resend,
    reveal_asymmetry_zscore,
    reveal_liar,
    traitor_a_conflicting_messages,
    traitor_forge_forward,
    truthful_reveal,
)
from qutrit_dba.agreement import AgreementConfig, Plan
from qutrit_dba.distribution import (
    CheckVerdict,
    CrossCheckReport,
    DistributionConfig,
    PartyChoices,
    cross_check,
    execute_run,
    run_attempts,
    sample_correlated_lists,
)
from qutrit_dba.qutrit_core import BasisChoice, MeasurementOutcome, prepare_initial
from qutrit_dba.strategies import (
    AdversaryKind,
    AttackBasis,
    GeneralId,
    LiarPolicy,
    honest,
    intercept_resend,
    kraus_attack,
    reveal_liar as reveal_liar_strategy,
    traitor_b_forge_forward,
)

I, II = BasisChoice.I, BasisChoice.II
A, B, C = GeneralId.A, GeneralId.B, GeneralId.C


def choices(ba, na, bb, nb, bc, nc):
    return (
        PartyChoices(basis=ba, number=na),
        PartyChoices(basis=bb, number=nb),
        PartyChoices(basis=bc, number=nc),
    )


# --- attack hooks -------------------------------------------------------------


def test_attack_hook_validation():
    with pytest.raises(ValueError):
        AttackHook(location=3, transform=lambda s: s)
    with pytest.raises(ValueError):
        AttackHook(location=1, transform=lambda s: s, rate=1.5)
    fractional = AttackHook(location=1, transform=lambda s: s, rate=0.5)
    with pytest.raises(ValueError):
        fractional.engages()  # no generator attached


def test_intercept_resend_returns_eigenstates_and_logs():
    hook = make_intercept_resend(
        AttackBasis.COMPUTATIONAL, location=1, rng=np.random.default_rng(0)
    )
    out = hook(prepare_initial())
    assert hook.memory == [out.amplitudes.argmax()]
    assert sorted(np.abs(out.amplitudes)) == [0.0, 0.0, 1.0]


def test_intercept_resend_statistics_on_matched_runs():
    """Measured and resent, the deterministic correlation decays to 1/3."""
    rng = np.random.default_rng(1)
    hook = make_intercept_resend(AttackBasis.COMPUTATIONAL, location=1, rng=rng)
    hits = 0
    n = 6000
    for i in range(n):
        r = execute_run(*choices(I, 0, I, 0, I, 0), attack=hook, rng=rng, run_id=i)
        hits += r.outcome.index == 0
    assert abs(hits / n - 1 / 3) < 0.02
    assert len(hook.memory) == n


def test_fourier_intercept_invisible_on_computational_runs():
    """The attacked state is an eigenstate of the attack basis, so the
    statistics of matched computational-basis runs are untouched."""
    rng = np.random.default_rng(2)
    hook = make_intercept_resend(AttackBasis.FOURIER, location=1, rng=rng)
    for na, nb, nc in ((0, 0, 0), (2, 1, 0)):
        for i in range(25):
            r = execute_run(*choices(I, na, I, nb, I, nc), attack=hook, rng=rng, run_id=i)
            assert r.outcome.index == 0
    for i in range(25):
        r = execute_run(*choices(I, 1, I, 0, I, 0), attack=hook, rng=rng, run_id=i)
        assert r.outcome.index != 0


def test_fourier_intercept_disturbs_conjugate_runs():
    rng = np.random.default_rng(3)
    hook = make_intercept_resend(AttackBasis.FOURIER, location=1, rng=rng)
    hits = 0
    n = 6000
    for i in range(n):
        r = execute_run(*choices(II, 0, II, 0, II, 0), attack=hook, rng=rng, run_id=i)
        hits += r.outcome.index == 0
    assert abs(hits / n - 1 / 3) < 0.02


def test_phase_shift_attack_forces_wrong_sums():
    """A unitary phase shift moves the detection onto runs whose sum is
    nonzero, so every valid run violates the sum rule."""
    strategy = kraus_attack(channel=channel_from_name("phase_shift", number=1))
    records = run_attempts(6000, adversary=strategy, rng=np.random.default_rng(4))
    valid = [r for r in records if r.valid]
    assert len(valid) > 300
    assert all(r.number_sum() != 0 for r in valid)


def test_zero_rate_attack_reproduces_honest_stream_bit_for_bit():
    def signature(strategy):
        records = run_attempts(1500, adversary=strategy, rng=np.random.default_rng(5))
        return [
            (r.combo(), None if r.outcome is None else r.outcome.index, r.valid)
            for r in records
        ]

    attacked = intercept_resend(basis=AttackBasis.COMPUTATIONAL, attack_rate=0.0)
    assert signature(attacked) == signature(honest())


def test_fractional_attack_rate_engages_proportionally():
    rng = np.random.default_rng(6)
    hook = make_intercept_resend(
        AttackBasis.COMPUTATIONAL, location=1, rng=np.random.default_rng(7), rate=0.4
    )
    n = 4000
    hits = 0
    for i in range(n):
        r = execute_run(*choices(I, 0, I, 0, I, 0), attack=hook, rng=rng, run_id=i)
        hits += r.outcome.index == 0
    engaged = len(hook.memory)
    assert abs(engaged / n - 0.4) < 0.03
    # detection interpolates between 1 (honest) and 1/3 (always attacked)
    assert abs(hits / n - (0.6 + 0.4 / 3)) < 0.03


# --- dishonest claims and reveals ----------------------------------------------


def test_false_claim_policy_behaviour():
    always = false_detection_report(1.0, np.random.default_rng(8))
    never = false_detection_report(0.0)
    detected = MeasurementOutcome(0)
    other = MeasurementOutcome(2)
    assert always(detected) and always(other) and always(None)
    assert never(detected)  # genuine detections are always claimed
    assert not never(other) and not never(None)
    with pytest.raises(ValueError):
        false_detection_report(1.5)

    half = false_detection_report(0.5, np.random.default_rng(9))
    claims = sum(half(other) for _ in range(4000))
    assert abs(claims / 4000 - 0.5) < 0.03


def test_reveal_liar_completes_sum_when_last():
    hook = reveal_liar(LiarPolicy(), traitor=A, rng=np.random.default_rng(10))
    assert hook(0, {B: 1, C: 0}, None) == 2
    assert hook(0, {B: 0, C: 0}, None) == 0
    assert hook(0, {B: 1, C: 1}, None) == 1


def test_reveal_liar_guesses_when_not_last():
    """Not knowing the others, the liar aims at the most likely completion:
    a sum of 1 for two unheard lieutenants, 0 for one unheard lieutenant."""
    hook = reveal_liar(LiarPolicy(), traitor=A, rng=np.random.default_rng(11))
    assert hook(0, {}, None) == 2  # guesses b + c = 1
    assert hook(0, {B: 1}, None) == 2  # ties break towards c = 0
    assert hook(0, {C: 0}, None) == 0


def test_reveal_liar_calibrated_misses_at_rate():
    policy = LiarPolicy.calibrated(0.3)
    hook = reveal_liar(policy, traitor=A, rng=np.random.default_rng(12))
    wrong = sum(hook(0, {B: 1, C: 0}, None) != 2 for _ in range(4000))
    assert abs(wrong / 4000 - 0.3) < 0.03


def test_lieutenant_liar_stays_in_bit_alphabet():
    rng = np.random.default_rng(13)
    record = execute_run(*choices(I, 0, I, 1, I, 0), rng=rng)
    hook = reveal_liar(LiarPolicy(), traitor=B, rng=rng)
    # completing 0 + 1 to the sum rule would need a 2; B falls back to truth
    value = hook(0, {A: 0, C: 1}, record)
    assert value == record.choices_b.number == 1
    assert hook(0, {A: 1, C: 0}, record) in (0, 1)


def test_truthful_reveal_reports_own_number():
    rng = np.random.default_rng(14)
    record = execute_run(*choices(I, 2, I, 1, I, 0), rng=rng)
    assert truthful_reveal(A)(0, {}, record) == 2
    assert truthful_reveal(B)(0, {}, record) == 1
    assert truthful_reveal(C)(0, {}, record) == 0


def test_adaptive_basis_announcer_copies_common_basis():
    rng = np.random.default_rng(15)
    record = execute_run(*choices(II, 0, I, 0, I, 0), rng=rng)
    announcer = adaptive_basis_announcer(A)
    assert announcer({C: I, B: I}, record) is I  # hides the mismatch
    assert announcer({C: I, B: II}, record) is II  # no common story: truth
    assert announcer({}, record) is II


# --- classical traitor moves -----------------------------------------------------


def test_traitor_a_conflicting_messages_split_the_list():
    lists = sample_correlated_lists(200, np.random.default_rng(16))
    to_b, to_c = traitor_a_conflicting_messages(lists.list_a)
    assert to_b.plan is Plan.ATTACK and to_c.plan is Plan.RETREAT
    assert set(to_b.positions).isdisjoint(to_c.positions)
    assert all(lists.list_a[j] == 0 for j in to_b.positions)
    assert all(lists.list_a[j] == 1 for j in to_c.positions)


def test_forge_forward_validation():
    rng = np.random.default_rng(17)
    own = (0, 1, 0, 1, 1, 0)
    with pytest.raises(ValueError):
        traitor_forge_forward(own, Plan.ATTACK, Plan.ATTACK, 2, rng)
    with pytest.raises(ValueError):
        traitor_forge_forward(own, Plan.ATTACK, Plan.RETREAT, 4, rng)


def test_forged_forward_matches_expected_length():
    lists = sample_correlated_lists(400, np.random.default_rng(18))
    cfg = AgreementConfig()
    plan, msg = forged_forward(
        lists.list_b, Plan.ATTACK, None, 400, cfg, np.random.default_rng(19)
    )
    assert plan is Plan.RETREAT and msg.plan is Plan.RETREAT
    assert len(msg) == round(cfg.expected_fraction * 400)
    assert list(msg.positions) == sorted(set(msg.positions))
    assert all(lists.list_b[j] == 1 for j in msg.positions)


def _loop_forge(own, target, needed, rng):
    # the loop form of the forger, kept as the reference for the array form
    candidates = [j for j, v in enumerate(own) if v == int(target)]
    picked = rng.choice(len(candidates), size=needed, replace=False)
    return tuple(sorted(candidates[int(i)] for i in picked))


def test_forger_matches_the_loop_reference():
    lists = sample_correlated_lists(3000, np.random.default_rng(21))
    for seed, (target, needed) in enumerate(itertools.product(Plan, (0, 1, 700))):
        received = Plan(1 - target)
        for own in (lists.values[1], lists.list_b, lists.list_c):
            msg = traitor_forge_forward(own, received, target, needed, np.random.default_rng(seed))
            assert msg.plan is target
            assert msg.positions == _loop_forge(own, target, needed, np.random.default_rng(seed))


def _exact_likely_sum(unheard):
    # enumerate the unheard numbers with exact honest priors
    alphabets = [(0, 1, 2) if g is A else (0, 1) for g in unheard]
    weight = Fraction(1, math.prod(len(a) for a in alphabets))
    dist = {r: Fraction(0) for r in range(3)}
    for values in itertools.product(*alphabets):
        dist[sum(values) % 3] += weight
    best = max(dist.values())
    return min(r for r, p in dist.items() if p == best)


@pytest.mark.parametrize("traitor", [A, B, C])
def test_likely_sum_mod3_matches_exact_enumeration(traitor):
    others = tuple(g for g in GeneralId if g is not traitor)
    # every tuple of unheard generals a liar can pass, in speaking order
    for keep in itertools.product((False, True), repeat=2):
        unheard = tuple(g for g, k in zip(others, keep) if k)
        assert _likely_sum_mod3(unheard) == _exact_likely_sum(unheard)
        assert _likely_sum_mod3(unheard) == _likely_sum_mod3(unheard)
    assert _likely_sum_mod3.cache_info().currsize <= 12


# --- strategy compilation ---------------------------------------------------------


def test_hooks_for_honest_and_classical_traitors_are_empty():
    for strategy in (honest(), traitor_b_forge_forward()):
        hooks = hooks_for_strategy(strategy, np.random.default_rng(20))
        assert hooks.attack is None
        assert hooks.claim_policy is None
        assert hooks.basis_announcer is None
        assert hooks.number_reveal is None
        assert hooks.traitor is strategy.traitor


def test_hooks_for_reveal_liar_carry_attack_and_reveal():
    strategy = reveal_liar_strategy()
    hooks = hooks_for_strategy(strategy, np.random.default_rng(21))
    assert hooks.attack is not None
    assert hooks.number_reveal is not None
    assert hooks.number_reveal.traitor is strategy.traitor is GeneralId.A


def test_channel_registry():
    assert channel_from_name("identity").name == "identity"
    assert "phase_shift[2]" in channel_from_name("phase_shift", number=2).name
    with pytest.raises(ValueError):
        channel_from_name("teleport")


# --- asymmetry detector ------------------------------------------------------------


def synthetic_report(n_checked, last, bad_last, bad_rest):
    last_ids = frozenset(range(last))
    bad = frozenset(range(bad_last)) | frozenset(range(last, last + bad_rest))
    return CrossCheckReport(
        checked_positions=frozenset(range(n_checked)),
        reveal_orders={},
        inconsistencies=len(bad),
        inconsistent_positions=bad,
        traitor_last_count=last,
        traitor_last_positions=last_ids,
        verdict=CheckVerdict.TAMPERING_DETECTED,
    )


def test_asymmetry_zscore_frozen_value():
    """Hand-computed two-proportion z: 0/33 against 33/67 gives 4.9254."""
    report = synthetic_report(100, last=33, bad_last=0, bad_rest=33)
    z = reveal_asymmetry_zscore(report)
    assert abs(z - 4.9254) < 1e-3
    assert asymmetry_detected(report, threshold=4.0)
    assert not asymmetry_detected(report, threshold=5.0)


def test_asymmetry_zscore_degenerate_cases():
    assert reveal_asymmetry_zscore(synthetic_report(50, 0, 0, 10)) == 0.0
    assert reveal_asymmetry_zscore(synthetic_report(50, 50, 10, 0)) == 0.0
    assert reveal_asymmetry_zscore(synthetic_report(50, 20, 0, 0)) == 0.0


def test_always_consistent_liar_trips_asymmetry_detector():
    strategy = reveal_liar_strategy()
    rng = np.random.default_rng(22)
    records = run_attempts(24000, adversary=strategy, rng=rng)
    hooks = hooks_for_strategy(strategy, rng)
    config = DistributionConfig(target_length=100, check_fraction=0.5)
    report = cross_check(records, config, adversary=hooks.number_reveal, rng=rng)
    assert report.checked > 500
    assert asymmetry_detected(report)
    # traitor-last checks are exactly the silent ones
    assert not (report.inconsistent_positions & report.traitor_last_positions)


def test_honest_reveals_show_no_asymmetry():
    rng = np.random.default_rng(23)
    records = run_attempts(24000, rng=rng)
    config = DistributionConfig(target_length=100, check_fraction=0.5)
    report = cross_check(records, config, adversary=truthful_reveal(A), rng=rng)
    assert report.inconsistencies == 0
    assert reveal_asymmetry_zscore(report) == 0.0
    assert not asymmetry_detected(report)

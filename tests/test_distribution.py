"""List distribution: runs, sifting, batches, cross-check, statistics.

The exact statistics are checked against a test-side oracle that
enumerates all 96 honest configurations with plain cmath and Fractions,
sharing no code with the package.
"""

from __future__ import annotations

import cmath
import dataclasses
import json
import math
from fractions import Fraction
from itertools import permutations, product

import numpy as np
import pytest

from qutrit_dba.distribution import (
    AttemptBudgetExceeded,
    CheckVerdict,
    CorrelatedLists,
    DistributionConfig,
    PartyChoices,
    RunRecord,
    assemble_lists,
    cross_check,
    execute_run,
    lists_to_jsonl,
    reveal_and_sift,
    run_attempts,
    run_batch,
    run_records_to_jsonl,
    sample_correlated_lists,
    theoretical_statistics,
)
from qutrit_dba.qutrit_core import (
    TAU,
    BasisChoice,
    MixedState,
    PhaseOperator,
    apply_channel,
    apply_operator,
    basis_operator,
    compose,
    encode_operator,
    outcome_probabilities,
    prepare_initial,
)
from qutrit_dba.strategies import (
    GeneralId,
    false_detection_report,
    honest,
    intercept_resend,
    kraus_attack,
    reveal_liar,
    traitor_c_forge_forward,
    AttackBasis,
)
from qutrit_dba.adversaries import (
    AttackHook,
    ProtocolHooks,
    channel_from_name,
    hooks_for_strategy,
    make_intercept_resend,
    make_kraus_attack,
    truthful_reveal,
)
import qutrit_dba.distribution as distribution_module

W = cmath.exp(2j * cmath.pi / 3)


# --- oracle ------------------------------------------------------------------


def oracle_outcome0(bases, numbers) -> float:
    vec = [1 / math.sqrt(3)] * 3
    for basis, n in zip(bases, numbers):
        if basis == "II":
            vec = [v * f for v, f in zip(vec, [1, W, W])]
        vec = [v * f for v, f in zip(vec, [1, W**n, W ** (-n)])]
    amp = sum(vec) / math.sqrt(3)
    return abs(amp) ** 2


def snap(p: float) -> Fraction:
    for exact in (Fraction(0), Fraction(1, 3), Fraction(1)):
        if abs(p - float(exact)) < 1e-9:
            return exact
    raise AssertionError(f"unexpected detection probability {p}")


def oracle_statistics():
    """Exact yield, combos and mixed-basis detection from first principles."""
    total_yield = Fraction(0)
    mixed_w = Fraction(0)
    mixed_d = Fraction(0)
    combos = {}
    for bases in product(("I", "II"), repeat=3):
        for numbers in product(range(3), range(2), range(2)):
            w = Fraction(1, 96)
            p0 = snap(oracle_outcome0(bases, numbers))
            if len(set(bases)) == 1:
                total_yield += w * p0
                if p0:
                    key = "".join(map(str, numbers))
                    combos[key] = combos.get(key, Fraction(0)) + w * p0
            else:
                mixed_w += w
                mixed_d += w * p0
    return (
        total_yield,
        mixed_d / mixed_w,
        {k: v / total_yield for k, v in combos.items()},
    )


def make_choices(ba, na, bb, nb, bc, nc):
    return (
        PartyChoices(basis=ba, number=na),
        PartyChoices(basis=bb, number=nb),
        PartyChoices(basis=bc, number=nc),
    )


I, II = BasisChoice.I, BasisChoice.II


# --- single runs --------------------------------------------------------------


def test_party_choices_validation():
    with pytest.raises(ValueError):
        PartyChoices(basis=I, number=3)
    with pytest.raises(ValueError):
        PartyChoices(basis=I, number=-1)


def test_execute_run_rejects_trits_for_b_and_c():
    a, b, c = make_choices(I, 0, I, 0, I, 0)
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        execute_run(a, PartyChoices(basis=I, number=2), c, rng=rng)
    with pytest.raises(ValueError):
        execute_run(a, b, PartyChoices(basis=I, number=2), rng=rng)
    with pytest.raises(ValueError):
        execute_run(a, b, c, rng=None)
    with pytest.raises(ValueError):
        execute_run(a, b, c, eta=0.0, rng=rng)


def test_matched_bases_zero_sum_always_detects():
    """The deterministic half of the correlation: outcome 0 with certainty."""
    rng = np.random.default_rng(1)
    for basis in (I, II):
        for na, nb, nc in ((0, 0, 0), (1, 1, 1), (2, 0, 1), (2, 1, 0)):
            for _ in range(10):
                r = execute_run(*make_choices(basis, na, basis, nb, basis, nc), rng=rng)
                assert r.outcome is not None and r.outcome.index == 0


def test_matched_bases_nonzero_sum_never_detects():
    rng = np.random.default_rng(2)
    for basis in (I, II):
        for na, nb, nc in product(range(3), range(2), range(2)):
            if (na + nb + nc) % 3 == 0:
                continue
            for _ in range(10):
                r = execute_run(*make_choices(basis, na, basis, nb, basis, nc), rng=rng)
                assert r.outcome is not None and r.outcome.index != 0


def test_mixed_bases_detect_one_third():
    rng = np.random.default_rng(3)
    hits = 0
    n = 6000
    for _ in range(n):
        r = execute_run(*make_choices(I, 0, II, 0, I, 0), rng=rng)
        hits += r.outcome.index == 0
    assert abs(hits / n - 1 / 3) < 0.02


def test_run_combo_string():
    rng = np.random.default_rng(4)
    r = execute_run(*make_choices(I, 2, I, 0, I, 1), rng=rng)
    assert r.combo() == "201"
    assert r.number_sum() == 0  # residue mod 3 is what the sum rule checks


# --- sifting ------------------------------------------------------------------


def test_reveal_and_sift_claims_only_on_detection():
    rng = np.random.default_rng(5)
    r = execute_run(*make_choices(I, 0, I, 0, I, 0), rng=rng)
    r = reveal_and_sift(r)
    assert r.detection_claimed and r.valid
    assert r.bases_announced == (I, I, I)  # announced in the order C, B, A

    r2 = execute_run(*make_choices(II, 1, II, 0, II, 0), rng=rng)
    r2 = reveal_and_sift(r2)
    assert not r2.detection_claimed
    assert r2.bases_announced is None and not r2.valid


def test_reveal_and_sift_rejects_mismatched_bases():
    rng = np.random.default_rng(6)
    for _ in range(200):
        r = execute_run(*make_choices(II, 0, I, 0, I, 0), rng=rng)
        r = reveal_and_sift(r)
        if r.detection_claimed:
            assert r.bases_announced == (I, I, II)
            assert not r.valid
            return
    raise AssertionError("no claimed run in 200 mixed-basis attempts")


def test_no_click_runs_are_invalid():
    rng = np.random.default_rng(7)
    saw_none = 0
    for _ in range(200):
        r = execute_run(*make_choices(I, 0, I, 0, I, 0), eta=0.2, rng=rng)
        if r.outcome is None:
            saw_none += 1
            assert not reveal_and_sift(r).valid
    assert saw_none > 100


# --- batch statistics ----------------------------------------------------------


def test_honest_yield_and_combos_match_theory():
    records = run_attempts(30000, rng=np.random.default_rng(8))
    valid = [r for r in records if r.valid]
    assert abs(len(valid) / len(records) - 1 / 12) < 0.006
    combos = {}
    for r in valid:
        combos[r.combo()] = combos.get(r.combo(), 0) + 1
    assert set(combos) == {"000", "111", "201", "210"}
    for freq in combos.values():
        assert abs(freq / len(valid) - 1 / 4) < 0.03
    a_two = sum(1 for r in valid if r.choices_a.number == 2)
    assert abs(a_two / len(valid) - 1 / 2) < 0.03


def test_valid_runs_all_satisfy_sum_rule():
    records = run_attempts(8000, rng=np.random.default_rng(9))
    for r in records:
        if r.valid:
            assert r.number_sum() == 0


def test_detector_efficiency_scales_yield():
    records = run_attempts(30000, eta=0.5, rng=np.random.default_rng(10))
    yield_rate = sum(r.valid for r in records) / len(records)
    assert abs(yield_rate - 1 / 24) < 0.005


def test_run_attempts_reproducible():
    def signature(seed):
        records = run_attempts(2000, rng=np.random.default_rng(seed))
        return [
            (r.combo(), None if r.outcome is None else r.outcome.index, r.valid)
            for r in records
        ]

    assert signature(11) == signature(11)
    assert signature(11) != signature(12)


def test_theoretical_statistics_match_oracle():
    got = theoretical_statistics()
    exp_yield, exp_mixed, exp_combos = oracle_statistics()
    assert got.attempt_yield == exp_yield == Fraction(1, 12)
    assert got.mixed_basis_detection_rate == exp_mixed == Fraction(1, 3)
    assert got.combo_distribution == exp_combos
    assert got.combo_distribution == {
        "000": Fraction(1, 4),
        "111": Fraction(1, 4),
        "201": Fraction(1, 4),
        "210": Fraction(1, 4),
    }
    assert got.a_marginal == {0: Fraction(1, 4), 1: Fraction(1, 4), 2: Fraction(1, 2)}


# --- run_batch and assembly -----------------------------------------------------


def test_run_batch_reaches_target_length():
    config = DistributionConfig(target_length=60, check_fraction=0.25, rng_seed=13)
    records = run_batch(config)
    report = cross_check(records, config, rng=np.random.default_rng(14))
    assert report.verdict is CheckVerdict.CLEAN
    lists = assemble_lists(records)
    assert lists.length >= 60
    assert lists.verify_correlation()
    short = lists.truncated(60)
    assert short.length == 60
    assert short.list_a == lists.list_a[:60]


def test_attempt_budget_exceeded(monkeypatch):
    monkeypatch.setattr(distribution_module, "_BUDGET_FACTOR", 0)
    config = DistributionConfig(target_length=10, rng_seed=15)
    with pytest.raises(AttemptBudgetExceeded):
        run_batch(config)


def test_correlated_lists_validation():
    with pytest.raises(ValueError):
        CorrelatedLists((0, 1), (0,), (0,))  # unequal lengths
    with pytest.raises(ValueError):
        CorrelatedLists((3,), (0,), (0,))  # A out of range
    with pytest.raises(ValueError):
        CorrelatedLists((0,), (2,), (0,))  # B holds a trit
    ok = CorrelatedLists((2, 0), (1, 0), (0, 0))
    assert ok.length == 2
    assert ok.verify_correlation()
    assert not CorrelatedLists((1, 0), (1, 0), (0, 0)).verify_correlation()


def test_sample_correlated_lists_matches_distribution():
    lists = sample_correlated_lists(8000, np.random.default_rng(16))
    assert lists.verify_correlation()
    combos = {}
    for a, b, c in zip(lists.list_a, lists.list_b, lists.list_c):
        key = f"{a}{b}{c}"
        combos[key] = combos.get(key, 0) + 1
    assert set(combos) == {"000", "111", "201", "210"}
    for count in combos.values():
        assert abs(count / 8000 - 1 / 4) < 0.03


# --- cross-check -----------------------------------------------------------------


def test_cross_check_honest_has_no_false_alarms():
    """Soundness: honest runs satisfy the sum rule, so checks never flag."""
    records = run_attempts(30000, rng=np.random.default_rng(17))
    config = DistributionConfig(target_length=100, check_fraction=0.3)
    report = cross_check(records, config, rng=np.random.default_rng(18))
    assert report.inconsistencies == 0
    assert report.verdict is CheckVerdict.CLEAN
    n_valid = sum(r.valid for r in records)
    assert abs(report.checked / n_valid - 0.3) < 0.03
    for r in records:
        assert r.consumed_by_check == (r.run_id in report.checked_positions)
    survivors = assemble_lists(records)
    assert survivors.length == n_valid - report.checked


def test_cross_check_requires_rng():
    records = run_attempts(100, rng=np.random.default_rng(19))
    with pytest.raises(ValueError):
        cross_check(records, DistributionConfig(target_length=5))


def test_cross_check_uses_all_reveal_orders():
    records = run_attempts(20000, rng=np.random.default_rng(20))
    config = DistributionConfig(target_length=100, check_fraction=0.5)
    report = cross_check(records, config, rng=np.random.default_rng(21))
    assert len(set(report.reveal_orders.values())) == 6


@pytest.mark.parametrize(
    "strategy,min_rate",
    [
        (intercept_resend(basis=AttackBasis.COMPUTATIONAL, location=1), 0.5),
        (intercept_resend(basis=AttackBasis.FOURIER, location=2), 0.15),
        (kraus_attack(channel=channel_from_name("dephasing")), 0.5),
        (kraus_attack(channel=channel_from_name("fourier_dephasing")), 0.15),
        (kraus_attack(channel=channel_from_name("phase_shift", number=1)), 0.9),
        (kraus_attack(channel=channel_from_name("depolarizing", strength=0.5)), 0.15),
        (false_detection_report(rate=1.0), 0.5),
    ],
)
def test_cross_check_flags_every_builtin_attack(strategy, min_rate):
    """Completeness: each built-in attack leaves a visible inconsistency rate."""
    rng = np.random.default_rng(22)
    records = run_attempts(18000, adversary=strategy, eta=1.0, rng=rng)
    config = DistributionConfig(target_length=100, check_fraction=0.5)
    report = cross_check(records, config, adversary=None, rng=rng)
    assert report.checked > 300
    assert report.inconsistency_rate() > min_rate
    assert report.verdict is CheckVerdict.TAMPERING_DETECTED


def test_traitor_reveal_hook_sees_one_third_last():
    """Reveal order is uniform, so the traitor answers last a third of the time."""
    strategy = reveal_liar()
    rng = np.random.default_rng(23)
    records = run_attempts(30000, adversary=strategy, rng=rng)
    hooks = hooks_for_strategy(strategy, rng)
    config = DistributionConfig(target_length=100, check_fraction=0.5)
    report = cross_check(records, config, adversary=hooks.number_reveal, rng=rng)
    assert report.checked > 500
    fraction_last = report.traitor_last_count / report.checked
    assert abs(fraction_last - 1 / 3) < 0.06


# the six reveal orders in the order the cross-check's order draws index them
REVEAL_ORDERS = list(permutations((GeneralId.A, GeneralId.B, GeneralId.C)))


def loop_cross_check(records, config, adversary, rng):
    """The cross-check as a plain loop over its documented draws.

    One uniform per valid run, then one order index per checked run.
    Returns (reveal orders, inconsistent run ids, traitor-last run ids).
    """
    valid = [r for r in records if r.valid]
    coins = rng.random(len(valid))
    picked = [r for r, u in zip(valid, coins) if u < config.check_fraction]
    order_ids = rng.integers(0, 6, size=len(picked))
    traitor = None if adversary is None else adversary.traitor
    orders, inconsistent, last = {}, set(), set()
    for record, k in zip(picked, order_ids):
        order = REVEAL_ORDERS[int(k)]
        numbers = {
            GeneralId.A: record.choices_a.number,
            GeneralId.B: record.choices_b.number,
            GeneralId.C: record.choices_c.number,
        }
        revealed = {}
        for general in order:
            if general is traitor:
                revealed[general] = int(adversary(record.run_id, dict(revealed), record))
            else:
                revealed[general] = numbers[general]
        orders[record.run_id] = order
        if sum(revealed.values()) % 3:
            inconsistent.add(record.run_id)
        if order[-1] is traitor:
            last.add(record.run_id)
    return orders, inconsistent, last


def binomial_interval(n, p, alpha=1e-6):
    """[lo, hi] holding Binomial(n, p) except with probability at most alpha.

    Each tail outside it carries at most alpha / 2, summed exactly from
    the probability mass function in log space.
    """
    pmf = [
        math.exp(
            math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
            + k * math.log(p) + (n - k) * math.log1p(-p)
        )
        for k in range(n + 1)
    ]
    lo, tail = 0, 0.0
    while tail + pmf[lo] <= alpha / 2:
        tail += pmf[lo]
        lo += 1
    hi, tail = n, 0.0
    while tail + pmf[hi] <= alpha / 2:
        tail += pmf[hi]
        hi -= 1
    return lo, hi


# (strategy, reveal hook): no hook, the stock hooks of a reveal liar, a
# false reporter and a classical traitor (the last two reveal nothing), and
# a truthful revealer
CROSS_CHECK_CASES = {
    "honest": (honest, None),
    "reveal_liar": (reveal_liar, "stock"),
    "false_report": (lambda: false_detection_report(rate=1.0), "stock"),
    "classical_traitor": (traitor_c_forge_forward, "stock"),
    "truthful_b": (honest, "truthful"),
}


@pytest.mark.parametrize("case", list(CROSS_CHECK_CASES))
def test_cross_check_equals_the_loop_over_its_draws(case):
    make_strategy, hook_kind = CROSS_CHECK_CASES[case]
    strategy = make_strategy()
    records = run_attempts(6000, adversary=strategy, rng=np.random.default_rng(40))
    config = DistributionConfig(target_length=50, check_fraction=0.4)

    def hook():
        # a fresh, identically seeded hook for each side
        if hook_kind == "truthful":
            return truthful_reveal(GeneralId.B)
        if hook_kind == "stock":
            return hooks_for_strategy(strategy, np.random.default_rng(41)).number_reveal
        return None

    orders, inconsistent, last = loop_cross_check(
        records, config, hook(), np.random.default_rng(42)
    )
    report = cross_check(records, config, adversary=hook(), rng=np.random.default_rng(42))
    assert report.reveal_orders == orders
    assert report.checked_positions == frozenset(orders)
    assert report.inconsistent_positions == frozenset(inconsistent)
    assert report.traitor_last_positions == frozenset(last)
    assert report.inconsistencies == len(inconsistent)
    assert report.traitor_last_count == len(last)
    assert [r.run_id for r in records if r.consumed_by_check] == sorted(orders)
    assert len(orders) > 100
    if case in ("reveal_liar", "false_report"):
        assert inconsistent


def test_cross_check_orders_are_uniform_and_checks_binomial():
    """Checked count ~ Binomial(valid, f); each order ~ Binomial(checked, 1/6).

    Bounds are exact binomial intervals at a false-failure probability of
    1e-6, split over the seven counts judged.
    """
    records = run_attempts(60000, rng=np.random.default_rng(43))
    fraction = 0.5
    config = DistributionConfig(target_length=100, check_fraction=fraction)
    report = cross_check(records, config, rng=np.random.default_rng(44))
    n_valid = sum(r.valid for r in records)
    lo, hi = binomial_interval(n_valid, fraction, 1e-6 / 7)
    assert lo <= report.checked <= hi
    counts = {order: 0 for order in REVEAL_ORDERS}
    for order in report.reveal_orders.values():
        counts[order] += 1
    lo, hi = binomial_interval(report.checked, 1 / 6, 1e-6 / 7)
    for order, count in counts.items():
        assert lo <= count <= hi, (order, count, lo, hi)


# --- the outcome table and the batch size ----------------------------------------


def test_cumulative_table_matches_the_state_path():
    """Every row is (p0, p0 + p1) of the state the exponent pair names."""
    for e1, e2 in product(range(3), range(3)):
        state = apply_operator(PhaseOperator(TAU * e1 / 3, TAU * e2 / 3), prepare_initial())
        probs = outcome_probabilities(state)
        row = distribution_module._CUM_TABLE[3 * e1 + e2]
        assert abs(row[0] - probs[0]) < 1e-12
        assert abs(row[1] - (probs[0] + probs[1])) < 1e-12


def test_code_tables_equal_the_exponent_arithmetic():
    """All 216 code triples: the thresholds, draws and numbers they index."""
    draws = [PartyChoices(basis=b, number=n) for b in (I, II) for n in range(3)]
    for a, b, c in product(draws, repeat=3):
        code = 36 * a.code + 6 * b.code + c.code
        t = sum(x.basis is II for x in (a, b, c))
        s = a.number + b.number + c.number
        expected = distribution_module._CUM_TABLE[3 * ((t + s) % 3) + (t - s) % 3]
        assert distribution_module._CUM_BY_CODE[code] is expected
        assert distribution_module._TRIPLES[code] == (a, b, c)
        assert distribution_module._NUMBERS_BY_CODE[:, code].tolist() == [
            a.number, b.number, c.number
        ]
    assert len(distribution_module._CUM_BY_CODE) == 216


def test_hand_built_choices_carry_the_singletons_code():
    for basis in (I, II):
        for n in range(3):
            built = PartyChoices(basis=basis, number=n)
            single = distribution_module._CHOICES[built.code]
            assert built.code == 3 * (basis is II) + n == single.code
            assert built is not single
            assert built == single and hash(built) == hash(single)
            assert repr(built) == f"PartyChoices(basis={basis!r}, number={n})"
            assert [f.name for f in dataclasses.fields(built)] == ["basis", "number"]
            assert dataclasses.asdict(built) == {"basis": basis, "number": n}
            assert dataclasses.replace(built).code == built.code
            with pytest.raises(dataclasses.FrozenInstanceError):
                built.code = 0
    assert PartyChoices(basis=I, number=1) != PartyChoices(basis=II, number=1)
    assert type(PartyChoices(basis=II, number=np.int64(2)).code) is int


def test_batch_reads_each_attempt_from_its_drawn_row():
    """One integers block of six draws and one random block of two uniforms."""
    n = 400
    rng = np.random.default_rng(45)
    rows = rng.integers(0, (2, 2, 2, 3, 2, 2), size=(n, 6))
    uniforms = rng.random((n, 2))
    records = run_attempts(n, rng=np.random.default_rng(45))
    assert len(records) == n
    for record, (ta, tb, tc, na, nb, nc), (_, u) in zip(records, rows, uniforms):
        parties = make_choices((I, II)[ta], na, (I, II)[tb], nb, (I, II)[tc], nc)
        assert (record.choices_a, record.choices_b, record.choices_c) == parties
        assert record.outcome == execute_run(*parties, uniforms=(0.0, u)).outcome


def test_honest_path_picks_the_outcome_of_the_composed_operators():
    """All 96 configurations, through execute_run with fixed uniforms."""
    for bases in product((I, II), repeat=3):
        for numbers in product(range(3), range(2), range(2)):
            parties = [PartyChoices(basis=b, number=n) for b, n in zip(bases, numbers)]
            op = compose(*(f(x) for p in parties
                           for f, x in ((basis_operator, p.basis), (encode_operator, p.number))))
            cum = np.cumsum(outcome_probabilities(apply_operator(op, prepare_initial())))
            for u in (0.05, 0.3, 0.45, 0.6, 0.8, 0.95):
                if np.min(np.abs(cum[:2] - u)) < 1e-9:
                    continue
                record = execute_run(*parties, uniforms=(0.0, u))
                assert record.outcome.index == int(np.searchsorted(cum[:2], u, side="right"))


@pytest.mark.parametrize("hop", [1, 2])
def test_engaged_identity_hook_keeps_the_honest_stream(hop):
    """The state path thresholds the same uniform as the table path."""

    def signature(strategy):
        records = run_attempts(3000, adversary=strategy, rng=np.random.default_rng(25))
        return [
            (r.combo(), None if r.outcome is None else r.outcome.index, r.valid)
            for r in records
        ]

    tapped = kraus_attack(channel=channel_from_name("identity"), location=hop)
    assert signature(tapped) == signature(None)


# --- the tap tables ---------------------------------------------------------------

# every stock hook shape: each stock channel and both intercept bases
TAPS = {
    "identity": ("identity", {}),
    "dephasing": ("dephasing", {}),
    "fourier_dephasing": ("fourier_dephasing", {}),
    "phase_shift_1": ("phase_shift", {"number": 1}),
    "phase_shift_2": ("phase_shift", {"number": 2}),
    "depolarizing_0.3": ("depolarizing", {"strength": 0.3}),
    "depolarizing_1.0": ("depolarizing", {"strength": 1.0}),
    "intercept_computational": AttackBasis.COMPUTATIONAL,
    "intercept_fourier": AttackBasis.FOURIER,
}

# a later party's draws in table order: index 2 * basis coin + bit
LATER_DRAWS = [PartyChoices(basis=b, number=n) for b in (I, II) for n in (0, 1)]


def make_tap(name, hop, rng=None, rate=1.0):
    spec = TAPS[name]
    if isinstance(spec, AttackBasis):
        return make_intercept_resend(spec, hop, rng=rng, rate=rate)
    channel, params = spec
    return make_kraus_attack(channel_from_name(channel, **params), hop, rng=rng, rate=rate)


def all_draws():
    # every configuration the three parties can draw
    for bases in product((I, II), repeat=3):
        for numbers in product(range(3), range(2), range(2)):
            yield [PartyChoices(basis=b, number=n) for b, n in zip(bases, numbers)]


def tables_of(hook):
    return distribution_module._compile_tap(hook.location, hook.tap)


class FixedUniform:
    """A generator stand-in whose every uniform is ``u``."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


@pytest.mark.parametrize("hop", [1, 2])
@pytest.mark.parametrize("name", list(TAPS))
def test_tap_tables_equal_the_state_path(name, hop):
    """Every row a run can reach equals (==) what the state objects give.

    The state path runs through a hand-built hook over the stock hook's own
    transform; an intercept tap measures with the same fixed uniform on
    both paths and must resend the same ket.
    """
    hook = make_tap(name, hop, rng=np.random.default_rng(0))
    tables = tables_of(hook)
    assert tables.width == (16 if hop == 1 else 4)
    twin = AttackHook(location=hop, transform=hook.transform)
    assert twin.tap is None
    uniforms = (0.05, 0.2, 0.4, 0.6, 0.8, 0.95) if tables.intercept else (None,)
    for parties in all_draws():
        for u in uniforms:
            hook.rng = FixedUniform(u)
            row = distribution_module._tap_row(tables, hook, *parties)
            state = distribution_module._attacked_state(twin, parties)
            if tables.intercept:
                assert hook.memory[-1] == hook.memory[-2]  # the ket both paths resent
            assert row == distribution_module._cumulative(outcome_probabilities(state))


def _fourier_kets():
    return [np.array([1, W**k, W ** (2 * k)]) / math.sqrt(3) for k in range(3)]


def _cumulative_of(probs):
    return (probs[0], probs[0] + probs[1])


@pytest.mark.parametrize("hop", [1, 2])
@pytest.mark.parametrize("name", list(TAPS))
def test_tap_tables_match_an_independent_computation(name, hop):
    """All 9 pre-hop pairs, to 1e-12, from compose and apply_channel."""
    hook = make_tap(name, hop, rng=np.random.default_rng(0))
    tables = tables_of(hook)
    fourier = _fourier_kets()

    def measured(rho):
        # Fourier-basis Born rule on a density matrix
        return [float(np.real(np.conj(f) @ rho @ f)) for f in fourier]

    def later_unitaries():
        for later in product(LATER_DRAWS, repeat=3 - hop):
            op = compose(*(f(x) for p in later
                           for f, x in ((basis_operator, p.basis), (encode_operator, p.number))))
            yield op.matrix()

    def close(row, probs):
        expected = _cumulative_of(probs)
        return abs(row[0] - expected[0]) < 1e-12 and abs(row[1] - expected[1]) < 1e-12

    for e1, e2 in product(range(3), range(3)):
        pre = 3 * e1 + e2
        psi = np.array([1, W**e1, W**e2]) / math.sqrt(3)
        if tables.intercept is None:
            channel = channel_from_name(TAPS[name][0], **TAPS[name][1])
            rho = apply_channel(channel, MixedState(np.outer(psi, np.conj(psi)))).matrix
            for later, u in enumerate(later_unitaries()):
                row = tables.rows[pre * tables.width + later]
                assert close(row, measured(u @ rho @ np.conj(u).T))
        else:
            basis = np.eye(3) if name == "intercept_computational" else fourier
            probs = [abs(np.vdot(b, psi)) ** 2 for b in basis]
            assert close(tables.intercept[pre], probs)
    if tables.intercept is not None:
        for k, ket in enumerate(np.eye(3) if name == "intercept_computational" else fourier):
            for later, u in enumerate(later_unitaries()):
                resent = u @ ket
                row = tables.rows[k * tables.width + later]
                assert close(row, measured(np.outer(resent, np.conj(resent))))


@pytest.mark.parametrize("rate", [1.0, 0.4])
@pytest.mark.parametrize("hop", [1, 2])
@pytest.mark.parametrize("name", list(TAPS))
def test_tabled_and_hand_built_hooks_give_the_same_stream(name, hop, rate):
    """A stock hook's table rows against the same transform run by hand."""

    def stream(tabled):
        hook = make_tap(name, hop, rng=np.random.default_rng(31), rate=rate)
        if not tabled:
            # the transform draws from and records into the stock hook's
            # generator and memory, so the twin shares both
            hook = AttackHook(
                location=hop, transform=hook.transform, description=hook.description,
                rate=rate, rng=hook.rng, memory=hook.memory,
            )
        records = run_attempts(3000, ProtocolHooks(attack=hook), rng=np.random.default_rng(32))
        assert (hook.tap is not None) is tabled
        signature = [
            (r.combo(), None if r.outcome is None else r.outcome.index, r.valid, r.attack_trace)
            for r in records
        ]
        return signature, list(hook.memory)

    tabled, hand_built = stream(True), stream(False)
    assert tabled == hand_built
    engaged = sum(trace is not None for *_, trace in tabled[0])
    assert engaged == 3000 if rate == 1.0 else 0 < engaged < 3000
    if isinstance(TAPS[name], AttackBasis):
        assert len(tabled[1]) == engaged  # one intercepted ket per engaged attempt


def test_tap_tables_depend_only_on_the_tap_value():
    """A hook that carries a stock tap over another transform changes no
    later stock hook's stream, whichever compiles first.

    ``tap`` is not a constructor option, so only a stock constructor sets it.
    """
    channel = channel_from_name("dephasing")
    with pytest.raises(TypeError):
        AttackHook(location=1, transform=lambda state: state, tap=("kraus", b""))

    def stream(hook):
        records = run_attempts(500, ProtocolHooks(attack=hook), rng=np.random.default_rng(5))
        return [(r.combo(), None if r.outcome is None else r.outcome.index) for r in records]

    stock = make_kraus_attack(channel, 1)
    expected = stream(AttackHook(location=1, transform=stock.transform))
    impostor = AttackHook(location=1, transform=lambda state: state)
    impostor.tap = stock.tap
    distribution_module._compile_tap.cache_clear()
    stream(impostor)
    assert stream(make_kraus_attack(channel, 1)) == expected


def _shortfall(n, target, keep):
    # P(Binomial(n, keep) < target), term by term
    if n < target:
        return 1.0
    return sum(
        math.exp(math.log(math.comb(n, k)) + k * math.log(keep) + (n - k) * math.log(1 - keep))
        for k in range(target)
    )


@pytest.mark.parametrize("target", [1, 16, 24, 80, 400])
@pytest.mark.parametrize("fraction", [0.1, 0.2, 0.3, 0.5, 0.8])
def test_batch_size_meets_the_shortfall_probability(target, fraction):
    n = distribution_module._valid_runs_needed(DistributionConfig(target, fraction))
    assert _shortfall(n, target, 1 - fraction) <= 1e-6 < _shortfall(n - 1, target, 1 - fraction)


def test_batch_sizes_at_the_acceptance_settings():
    sizes = {
        (L, f): distribution_module._valid_runs_needed(DistributionConfig(L, f))
        for L, f in ((24, 0.5), (16, 0.5), (80, 0.3), (400, 0.2))
    }
    assert sizes == {(24, 0.5): 92, (16, 0.5): 70, (80, 0.3): 154, (400, 0.2): 558}


def test_budget_failure_carries_the_records(monkeypatch):
    monkeypatch.setattr(distribution_module, "_BUDGET_FACTOR", 0.05)
    with pytest.raises(AttemptBudgetExceeded) as caught:
        run_batch(DistributionConfig(target_length=24), rng=np.random.default_rng(26))
    records = caught.value.records
    assert caught.value.attempts == len(records) > 0
    assert [r.run_id for r in records] == list(range(len(records)))
    valid = sum(r.valid for r in records)
    assert f"{valid} valid runs after {len(records)} attempts" in str(caught.value)


# --- export ----------------------------------------------------------------------


def test_run_records_jsonl_round_trip():
    records = run_attempts(50, rng=np.random.default_rng(24))
    lines = run_records_to_jsonl(records).splitlines()
    assert len(lines) == 50
    for line, record in zip(lines, records):
        data = json.loads(line)
        assert data["run_id"] == record.run_id
        assert data["valid"] == record.valid
        assert data["choices_a"]["number"] == record.choices_a.number
        expected = None if record.outcome is None else record.outcome.index
        assert data["outcome"] == expected


def test_lists_jsonl_shows_only_own_numbers():
    lists = CorrelatedLists((2, 0), (1, 0), (0, 0))
    for party, key, values in (("a", "l_a", (2, 0)), ("b", "l_b", (1, 0)), ("c", "l_c", (0, 0))):
        lines = lists_to_jsonl(lists, party).splitlines()
        assert len(lines) == 2
        for j, line in enumerate(lines):
            data = json.loads(line)
            assert data == {"position": j, key: values[j]}


def test_distribution_config_validation():
    with pytest.raises(ValueError):
        DistributionConfig(target_length=0)
    with pytest.raises(ValueError):
        DistributionConfig(target_length=10, check_fraction=0.0)
    with pytest.raises(ValueError):
        DistributionConfig(target_length=10, check_fraction=1.0)
    with pytest.raises(ValueError):
        DistributionConfig(target_length=10, detector_efficiency=0.0)
    with pytest.raises(ValueError):
        DistributionConfig(target_length=10, detector_efficiency=1.2)
    with pytest.raises(ValueError):
        DistributionConfig(target_length=10, inconsistency_threshold=1.0)


# --- array-backed lists ------------------------------------------------------------

_LOOP_COMBOS = ((0, 0, 0), (1, 1, 1), (2, 0, 1), (2, 1, 0))


@pytest.mark.parametrize(
    "lists",
    [
        ((-1,), (0,), (0,)),
        ((3,), (0,), (0,)),
        ((300,), (0,), (0,)),
        ((2**70,), (0,), (0,)),
        ((0,), (2,), (0,)),
        ((0,), (0,), (2,)),
        ((0,), (300,), (0,)),
        ((0,), (0,), (2**70,)),
        ((0,), (-1,), (0,)),
        ((np.int64(-1),), (0,), (0,)),
        (np.array([300]), (0,), (0,)),
        (np.array([2**64 - 1], dtype=np.uint64), (0,), (0,)),
        ((0,), np.array([-1], dtype=np.int8), (0,)),
        ((None,), (0,), (0,)),
        ((0, 1), np.zeros(2), np.zeros(3)),
    ],
)
def test_correlated_lists_reject_bad_entries_with_value_error(lists):
    with pytest.raises(ValueError):
        CorrelatedLists(*lists)


def test_correlated_lists_from_arrays_read_back_as_plain_ints():
    from_arrays = CorrelatedLists(
        np.array([2, 0]), np.array([1, 0], dtype=np.uint8), (np.int64(0), np.int64(0))
    )
    from_tuples = CorrelatedLists((2, 0), (1, 0), (0, 0))
    assert from_arrays.list_a == (2, 0)
    assert from_arrays.list_b == (1, 0)
    assert from_arrays.list_c == (0, 0)
    views = from_arrays.list_a + from_arrays.list_b + from_arrays.list_c
    assert all(type(v) is int for v in views)
    assert (from_arrays == from_tuples) is True
    assert (from_arrays != CorrelatedLists((1, 0), (1, 0), (0, 0))) is True
    assert hash(from_arrays) == hash(from_tuples)
    for party in "abc":
        assert lists_to_jsonl(from_arrays, party) == lists_to_jsonl(from_tuples, party)


def test_correlated_lists_are_frozen():
    source = np.array([2, 0])
    lists = CorrelatedLists(source, (1, 0), (0, 0))
    source[0] = 1  # the caller's array stays writable and the lists keep their own
    assert lists.list_a == (2, 0)
    with pytest.raises(ValueError):
        lists.values[0, 0] = 1
    with pytest.raises(AttributeError):
        lists.values = None
    short = lists.truncated(1)
    assert short.list_a == (2,)
    assert not short.values.flags.writeable


def test_sample_correlated_lists_matches_the_loop_draw():
    picks = np.random.default_rng(31).integers(0, 4, size=500)
    expected = [_LOOP_COMBOS[int(i)] for i in picks]
    lists = sample_correlated_lists(500, np.random.default_rng(31))
    assert lists.list_a == tuple(x for x, _, _ in expected)
    assert lists.list_b == tuple(y for _, y, _ in expected)
    assert lists.list_c == tuple(z for _, _, z in expected)
    assert lists.values.dtype == np.int8 and lists.values.shape == (3, 500)


def test_verify_correlation_matches_the_loop():
    rng = np.random.default_rng(32)
    for _ in range(50):
        lists = sample_correlated_lists(int(rng.integers(1, 30)), rng)
        if rng.random() < 0.5:
            b = list(lists.list_b)
            j = int(rng.integers(len(b)))
            b[j] = 1 - b[j]
            lists = CorrelatedLists(lists.list_a, b, lists.list_c)
        expected = all(
            (x + y + z) % 3 == 0 for x, y, z in zip(lists.list_a, lists.list_b, lists.list_c)
        )
        assert lists.verify_correlation() is expected


def test_assemble_lists_matches_the_loop():
    config = DistributionConfig(target_length=40, check_fraction=0.3, rng_seed=33)
    records = run_batch(config)
    cross_check(records, config, rng=np.random.default_rng(34))
    survivors = [r for r in records if r.valid and not r.consumed_by_check]
    lists = assemble_lists(records)
    assert lists.list_a == tuple(r.choices_a.number for r in survivors)
    assert lists.list_b == tuple(r.choices_b.number for r in survivors)
    assert lists.list_c == tuple(r.choices_c.number for r in survivors)
    assert assemble_lists([]).length == 0

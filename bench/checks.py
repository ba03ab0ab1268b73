"""Correctness oracles for the benchmark, derived apart from the program.

Every expected value here comes from the protocol's finite tables,
enumerated with exact fractions, or from a short argument written next to
it; nothing is compared against a stored copy of the program's output.
Statistical checks accept an observation unless a Chernoff bound puts its
two-sided tail below ``ALPHA``, so each check fails a correct program
with probability at most ``ALPHA``.

The functions take plain outcome objects (anything with the fields of
``qutrit_dba.TrialOutcome`` or ``AgreementTranscript``) and return a list
of problems; an empty list means the check passed.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product
from typing import Dict, List, Mapping, Sequence

# false-failure probability of each statistical check
ALPHA = 1e-6

VALID_COMBOS = ("000", "111", "201", "210")

# scenarios whose distribution phase is untouched (classical traitors only
# act in the agreement phase), so the honest oracles apply
HONEST_DISTRIBUTION = ("honest", "traitor_a", "traitor_b", "traitor_c")

# Probability that one checked valid run of a tampered trial still passes
# the cross-check, at the stock parameters of each scenario.
# * intercept_resend (computational basis, hop 1) and kraus_attack
#   (computational dephasing, hop 1): after the attack the qutrit is
#   diagonal in the computational basis, every later phase leaves it so,
#   and each Fourier outcome has probability 1/3 whatever the numbers.  A
#   valid run's numbers are therefore uniform and independent, and A's
#   uniform trit makes the sum 0 mod 3 with probability 1/3.
# * false_report (rate 1): C claims every run, so a valid run is any run
#   with matched bases, whose numbers are uniform: 1/3 again.
# * reveal_liar (traitor A): revealing last (probability 1/3) the liar
#   completes the sum; revealing earlier, at least one unheard lieutenant
#   bit is uniform and independent of what the liar knows, so any
#   announcement passes with probability at most 1/2.  An upper bound of
#   1/3 + 2/3 * 1/2 = 2/3.
CONSISTENT_ON_CHECK = {
    "intercept_resend": Fraction(1, 3),
    "kraus_attack": Fraction(1, 3),
    "false_report": Fraction(1, 3),
    "reveal_liar": Fraction(2, 3),
}

# the traitor's place in a uniformly random reveal order of three
TRAITOR_LAST = Fraction(1, 3)


# ---------------------------------------------------------------------------
# exact honest statistics
# ---------------------------------------------------------------------------


def honest_theory():
    """Exact yield and valid-combination law of one honest attempt.

    With matched bases the three basis phases add (3t, 3t), which vanish
    mod 3, so the qutrit reaches C as diag(1, w^s, w^-s) applied to the
    uniform superposition, s = a + b + c.  Outcome 0 then fires with
    probability |1 + w^s + w^-s|^2 / 9: 1 when s = 0 mod 3, 0 otherwise.
    Mismatched bases never survive sifting.
    """
    matched = Fraction(sum(1 for t in product((0, 1), repeat=3) if len(set(t)) == 1), 8)
    numbers = list(product(range(3), range(2), range(2)))
    fired = [f"{a}{b}{c}" for a, b, c in numbers if (a + b + c) % 3 == 0]
    attempt_yield = matched * Fraction(len(fired), len(numbers))
    combos = {k: Fraction(1, len(fired)) for k in fired}
    return attempt_yield, combos


# ---------------------------------------------------------------------------
# acceptance tests
# ---------------------------------------------------------------------------


def _kl(q: float, p: float) -> float:
    # Kullback-Leibler divergence between Bernoulli(q) and Bernoulli(p)
    total = 0.0
    if q > 0.0:
        total += q * math.log(q / p)
    if q < 1.0:
        total += (1.0 - q) * math.log((1.0 - q) / (1.0 - p))
    return total


def tail_bound(k: int, n: int, p: float, upper: bool) -> float:
    """Chernoff bound on P(X >= k) (upper) or P(X <= k) for X ~ Bin(n, p)."""
    if n == 0:
        return 1.0
    q = k / n
    if (upper and q <= p) or (not upper and q >= p):
        return 1.0
    return math.exp(-n * _kl(q, p))


def binomial_ok(k: int, n: int, p: float, alpha: float = ALPHA) -> bool:
    """Accept k successes in n Bernoulli(p) draws at two-sided level alpha."""
    p = float(p)
    return (
        tail_bound(k, n, p, upper=True) >= alpha / 2
        and tail_bound(k, n, p, upper=False) >= alpha / 2
    )


def stopped_yield_ok(valid: int, attempts: int, p: float) -> bool:
    """Accept a yield observed under the stop-at-a-fixed-valid-count rule.

    Each batch ends on its last needed valid run, so the attempts N that
    bring in R valid runs are negative binomial, not binomial.  The two
    tails translate exactly: N <= n iff the first n attempts hold at least
    R valid runs, and N >= n iff the first n - 1 attempts hold at most
    R - 1.
    """
    p = float(p)
    low = tail_bound(valid, attempts, p, upper=True)  # P(N <= attempts)
    high = tail_bound(valid - 1, attempts - 1, p, upper=False)  # P(N >= attempts)
    return low >= ALPHA / 2 and high >= ALPHA / 2


def allowed_misses(n: int, q: float) -> int:
    """Fewest misses m with P(more than m of n trials miss) <= ALPHA.

    Each trial misses independently with probability at most q; the union
    bound P(X >= j) <= C(n, j) q^j keeps the count honest without a
    distribution library.
    """
    m = 0
    while math.comb(n, m + 1) * q ** (m + 1) > ALPHA:
        m += 1
    return m


# ---------------------------------------------------------------------------
# whole-trial checks
# ---------------------------------------------------------------------------


def check_trials(groups: Mapping[str, Sequence], fractions: Mapping[str, float]) -> List[str]:
    """Check trial outcomes grouped by scenario name.

    ``fractions`` gives each scenario's check fraction f.  Failed trials
    are skipped (they are counted as failed operations instead).  Each
    scenario is checked on its own: scenarios without distribution hooks
    draw identical batches for the same seed and trial, so pooling them
    would count one sample twice.
    """
    problems: List[str] = []
    attempt_yield, combo_law = honest_theory()
    for name, trials in groups.items():
        trials = [t for t in trials if t.failure is None]
        if not trials:
            continue
        f = fractions[name]
        valid = sum(t.valid_runs for t in trials)
        checked = sum(t.checked for t in trials)
        bad = sum(1 for t in trials if not (t.broadcast and t.validity and t.dba_success))
        if bad:
            problems.append(f"{name}: {bad} trials break broadcast or validity")
        if not binomial_ok(checked, valid, f):
            problems.append(f"{name}: {checked} checked of {valid} valid runs, f = {f}")
        if name in HONEST_DISTRIBUTION:
            problems += _check_honest_batches(name, trials, attempt_yield, combo_law)
        if name == "reveal_liar":
            last = sum(t.traitor_last for t in trials)
            if not binomial_ok(last, checked, TRAITOR_LAST):
                problems.append(f"{name}: traitor last in {last} of {checked} reveals")
        if name in CONSISTENT_ON_CHECK:
            passes = float(CONSISTENT_ON_CHECK[name])
            # a trial misses only if every one of its valid runs dodges the
            # check, one way or the other
            q = max((1.0 - f * (1.0 - passes)) ** t.valid_runs for t in trials)
            misses = sum(1 for t in trials if not t.tampering_detected)
            allowed = allowed_misses(len(trials), q)
            if misses > allowed:
                problems.append(
                    f"{name}: {misses} of {len(trials)} trials missed tampering, "
                    f"allowed {allowed} (per-trial miss <= {q:.3g})"
                )
    return problems


def _check_honest_batches(name, trials, attempt_yield, combo_law) -> List[str]:
    problems: List[str] = []
    attempts = sum(t.attempts for t in trials)
    valid = sum(t.valid_runs for t in trials)
    if not stopped_yield_ok(valid, attempts, attempt_yield):
        problems.append(f"{name}: yield {valid}/{attempts}, expected {attempt_yield}")
    combos: Dict[str, int] = {}
    for t in trials:
        for combo, n in t.combo_counts.items():
            combos[combo] = combos.get(combo, 0) + n
    strays = sorted(set(combos) - set(combo_law))
    if strays:
        problems.append(f"{name}: combinations outside {VALID_COMBOS}: {strays}")
    for combo, p in combo_law.items():
        k = combos.get(combo, 0)
        if not binomial_ok(k, valid, p, ALPHA / len(combo_law)):
            problems.append(f"{name}: combination {combo}: {k} of {valid}, expected {p}")
    noisy = sum(t.inconsistencies for t in trials)
    if noisy:
        problems.append(f"{name}: {noisy} cross-check inconsistencies, expected 0")
    tampered = sum(1 for t in trials if t.tampering_detected)
    if tampered:
        problems.append(f"{name}: tampering detected in {tampered} honest trials")
    return problems


# ---------------------------------------------------------------------------
# agreement-phase checks
# ---------------------------------------------------------------------------

# The paper's table for each commander behaviour: the row each loyal
# lieutenant lands in and what it then follows.  "plan" is the loyal
# commander's plan, "fallback" the pre-agreed plan.  A forged forward
# fails the receiver's value check (each forged position survives with
# probability 1/2), so the loyal receiver keeps its own consistent data.
EXPECTED_ROWS = {
    "honest": {"B": ("iia", "plan"), "C": ("iia", "plan")},
    "traitor_a": {"B": ("iib", "fallback"), "C": ("iib", "fallback")},
    "traitor_b": {"C": ("iid", "plan")},
    "traitor_c": {"B": ("iid", "plan")},
}


def check_agreement(
    case: str, plan: int, transcript, conditions, plan_counts: Sequence[int]
) -> List[str]:
    """Check one agreement execution against the decision table.

    ``plan_counts[v]`` is the number of positions of l_a holding v; every
    commander message must name exactly those positions' count.
    """
    problems: List[str] = []
    records = {"B": transcript.lieutenant_b, "C": transcript.lieutenant_c}
    fallback = int(transcript.cfg.fallback_plan)
    for general, (row, follows) in EXPECTED_ROWS[case].items():
        record = records[general]
        want = plan if follows == "plan" else fallback
        if record.case.value != row:
            problems.append(f"{case}/{plan}: {general} in row {record.case.value}, expected {row}")
        decision = record.decision
        if decision.kind.value != "follow" or int(decision.plan) != want:
            problems.append(f"{case}/{plan}: {general} decided {decision!r}, expected Follow({want})")
    for general, record in records.items():
        sent = int(record.commander_content)
        if len(record.commander_message) != plan_counts[sent]:
            problems.append(
                f"{case}/{plan}: message to {general} names {len(record.commander_message)} "
                f"positions, l_a holds {plan_counts[sent]} of plan {sent}"
            )
    if tuple(conditions) != (True, True):
        problems.append(f"{case}/{plan}: broadcast, validity = {tuple(conditions)}")
    return problems


# ---------------------------------------------------------------------------
# traced-run checks
# ---------------------------------------------------------------------------


def check_traced(mismatches: int, ops: int) -> List[str]:
    """The wrappers change timing only: traced outputs equal untraced ones."""
    if mismatches:
        return [f"{mismatches} of {ops} traced operations differ from the untraced run"]
    return []


def check_counted(counted: Mapping[str, int], aggregates: Mapping[str, int]) -> List[str]:
    """Totals counted by the wrappers equal the program's own aggregates."""
    return [
        f"wrappers counted {key} = {counted[key]}, aggregates say {aggregates[key]}"
        for key in ("attempts_total", "valid_total")
        if counted[key] != aggregates[key]
    ]

"""Quantum list-distribution phase: runs, sifting, cross-check, lists.

One run sends a single qutrit A -> B -> C.  Every party secretly applies a
basis operator (I or II, a coin flip) followed by a number encoding (A a
trit, B and C a bit), and C measures in the Fourier basis.  C announces
whether outcome 0 fired; if so the bases are revealed in reverse order
(C, B, A) and the run is valid when all three match.  Valid runs are
deterministic: outcome 0 fires exactly when the encoded numbers sum to
0 mod 3, so each surviving run hands the three parties one correlated
list position without revealing it to anyone else.

A random fraction of valid runs is sacrificed in a cross-check where the
numbers are spoken aloud in random order; any sum-rule violation exposes
tampering.  The survivors become the CorrelatedLists consumed by the
agreement phase.

A batch draws the loyal parties' randomness in numpy blocks: one
``integers`` call for every attempt's three basis coins, A's trit and B's
and C's bits, and one ``random`` call for every attempt's click and
measurement uniforms.  Each attempt is then one row of the block, run
through ``execute_run`` and ``reveal_and_sift``.  An honest run never
builds a state vector: every honest operator is diag(1, w^m1, w^m2) with
integer exponents, so a run reduces to two sums mod 3 and a lookup in a
9-entry cumulative outcome table (computed at import from the actual
operators, not hard-coded), thresholded with the measurement uniform.
A stock attack hook (a Kraus channel or an intercept-resend tap) acts on
one hop, so from each of the 9 pre-hop states it leads to a finite set of
outcome distributions.  Those are compiled, once per hop and channel or
basis, into cumulative outcome tables, indexed by the pre-hop exponent
pair and the later parties' operators and computed with the same
``qutrit_core`` calls as the state path; an engaged attempt is then a
lookup, plus the tap's own measurement uniform for intercept-resend.  A
hand-built hook has no tables and runs through explicit state objects
from its hop onward.  Hooks draw only from their own generators.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import product
from statistics import NormalDist
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from .adversaries import (
    AttackHook,
    BasisAnnouncer,
    ProtocolHooks,
    RevealHook,
    channel_output,
    hooks_for_strategy,
    intercept_thresholds,
    tap_source,
)
from .qutrit_core import (
    TAU,
    AttackChannel,
    BasisChoice,
    MeasurementOutcome,
    PhaseOperator,
    PureState,
    RandomSource,
    apply_operator,
    apply_operator_mixed,
    outcome_probabilities,
    prepare_initial,
)
from .strategies import AdversaryStrategy, GeneralId, honest

__all__ = [
    "PartyChoices",
    "RunRecord",
    "CorrelatedLists",
    "CheckVerdict",
    "CrossCheckReport",
    "DistributionConfig",
    "AttemptBudgetExceeded",
    "execute_run",
    "reveal_and_sift",
    "run_attempts",
    "run_batch",
    "cross_check",
    "assemble_lists",
    "sample_correlated_lists",
    "theoretical_statistics",
    "TheoreticalStatistics",
    "run_records_to_jsonl",
    "lists_to_jsonl",
]


# ---------------------------------------------------------------------------
# types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PartyChoices:
    """One party's secret draw for a single run: a basis and a number."""

    basis: BasisChoice
    number: int

    def __post_init__(self) -> None:
        if not isinstance(self.basis, BasisChoice):
            raise ValueError(f"basis must be a BasisChoice, got {self.basis!r}")
        if self.number not in (0, 1, 2):
            raise ValueError(f"encoded number must be 0, 1 or 2, got {self.number!r}")


@dataclass(slots=True)
class RunRecord:
    """Everything observable about one protocol run.

    ``bases_announced`` is filled by sifting, ordered as announced:
    C first, then B, then A.  ``valid`` implies the detection was claimed
    and all announcements matched; ``consumed_by_check`` marks valid runs
    sacrificed to the cross-check.
    """

    run_id: int
    choices_a: PartyChoices
    choices_b: PartyChoices
    choices_c: PartyChoices
    outcome: Optional[MeasurementOutcome]
    attack_trace: Optional[str] = None
    detection_claimed: bool = False
    bases_announced: Optional[Tuple[BasisChoice, BasisChoice, BasisChoice]] = None
    valid: bool = False
    consumed_by_check: bool = False

    def number_sum(self) -> int:
        return (self.choices_a.number + self.choices_b.number + self.choices_c.number) % 3

    def combo(self) -> str:
        return _COMBO_NAMES[
            9 * self.choices_a.number + 3 * self.choices_b.number + self.choices_c.number
        ]


# the combo string of every number triple, built once, so that counts keyed
# by combo share their keys
_COMBO_NAMES = tuple(f"{a}{b}{c}" for a, b, c in product(range(3), repeat=3))


@dataclass(frozen=True)
class CorrelatedLists:
    """The three same-length secret lists produced by a distribution batch.

    Structural constraints (equal lengths, A trits, B/C bits) are enforced
    here; the cross-list sum rule is a joint property no single party can
    see, so it is exposed as :meth:`verify_correlation` instead of a
    constructor assertion — adversarial executions can hand the agreement
    phase lists that violate it, and the protocol must cope.
    """

    list_a: Tuple[int, ...]
    list_b: Tuple[int, ...]
    list_c: Tuple[int, ...]

    def __post_init__(self) -> None:
        a = tuple(int(v) for v in self.list_a)
        b = tuple(int(v) for v in self.list_b)
        c = tuple(int(v) for v in self.list_c)
        if not (len(a) == len(b) == len(c)):
            raise ValueError("the three lists must have equal length")
        if any(v not in (0, 1, 2) for v in a):
            raise ValueError("l_a entries must be trits")
        if any(v not in (0, 1) for v in b) or any(v not in (0, 1) for v in c):
            raise ValueError("l_b and l_c entries must be bits")
        object.__setattr__(self, "list_a", a)
        object.__setattr__(self, "list_b", b)
        object.__setattr__(self, "list_c", c)

    @property
    def length(self) -> int:
        return len(self.list_a)

    def verify_correlation(self) -> bool:
        """True iff (l_a + l_b + l_c) mod 3 = 0 at every position."""
        return all(
            (x + y + z) % 3 == 0
            for x, y, z in zip(self.list_a, self.list_b, self.list_c)
        )

    def truncated(self, length: int) -> "CorrelatedLists":
        if length > self.length:
            raise ValueError(f"cannot truncate length {self.length} to {length}")
        return CorrelatedLists(
            self.list_a[:length], self.list_b[:length], self.list_c[:length]
        )


class CheckVerdict(Enum):
    CLEAN = "clean"
    TAMPERING_DETECTED = "tampering_detected"


@dataclass(frozen=True)
class CrossCheckReport:
    """Outcome of sacrificing a random subset of valid runs.

    ``checked_positions`` etc. hold run ids.  The per-position breakdowns
    (which checked runs were inconsistent, on which the traitor happened to
    reveal last) feed the reveal-order asymmetry detector.
    """

    checked_positions: frozenset
    reveal_orders: Dict[int, Tuple[GeneralId, GeneralId, GeneralId]]
    inconsistencies: int
    inconsistent_positions: frozenset
    traitor_last_count: int
    traitor_last_positions: frozenset
    verdict: CheckVerdict

    def __post_init__(self) -> None:
        if self.inconsistencies > len(self.checked_positions):
            raise ValueError("more inconsistencies than checked positions")
        if self.inconsistencies != len(self.inconsistent_positions):
            raise ValueError("inconsistency count does not match the position set")

    @property
    def checked(self) -> int:
        return len(self.checked_positions)

    def inconsistency_rate(self) -> float:
        return self.inconsistencies / self.checked if self.checked else 0.0


@dataclass(frozen=True)
class DistributionConfig:
    """Batch parameters.

    target_length: list positions wanted after the cross-check.
    check_fraction: probability each valid run is sacrificed to the check.
    detector_efficiency: per-run click probability (no dark counts).
    inconsistency_threshold: maximum tolerated inconsistency rate before
        declaring tampering; honest runs are exactly consistent, so the
        default 0 aborts on any violation.
    rng_seed: seed used when no generator is supplied.
    """

    target_length: int
    check_fraction: float = 0.2
    detector_efficiency: float = 1.0
    inconsistency_threshold: float = 0.0
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if self.target_length < 1:
            raise ValueError(f"target_length must be >= 1, got {self.target_length!r}")
        if not 0.0 < self.check_fraction < 1.0:
            raise ValueError(
                f"check_fraction must be in (0, 1), got {self.check_fraction!r}"
            )
        if not 0.0 < self.detector_efficiency <= 1.0:
            raise ValueError(
                f"detector_efficiency must be in (0, 1], got {self.detector_efficiency!r}"
            )
        if not 0.0 <= self.inconsistency_threshold < 1.0:
            raise ValueError(
                f"inconsistency_threshold must be in [0, 1), got {self.inconsistency_threshold!r}"
            )


class AttemptBudgetExceeded(RuntimeError):
    """Raised when an adversary suppresses valid runs past the attempt budget.

    ``records`` holds the sifted attempts made before giving up, and
    ``attempts`` their number.
    """

    def __init__(self, message: str, records: List["RunRecord"]) -> None:
        super().__init__(message)
        self.records = records
        self.attempts = len(records)


# ---------------------------------------------------------------------------
# fast-path tables
# ---------------------------------------------------------------------------

# Honest operators are diag(1, w^m1, w^m2); a whole run is two exponent
# sums mod 3.  The outcome distribution for each exponent pair is computed
# once from the real operators so the fast path cannot drift from the
# linear-algebra path.


def _exponent_tables():
    probs = {}
    states = {}
    initial = prepare_initial()
    for m1, m2 in product(range(3), range(3)):
        op = PhaseOperator(TAU * m1 / 3.0, TAU * m2 / 3.0)
        state = apply_operator(op, initial)
        states[(m1, m2)] = state
        probs[(m1, m2)] = tuple(float(p) for p in outcome_probabilities(state))
    return probs, states


_PROB_TABLE, _STATE_TABLE = _exponent_tables()


def _cumulative(probs) -> Tuple[float, float]:
    # the thresholds (p0, p0 + p1): a uniform below the first picks outcome
    # 0, below the second outcome 1, otherwise outcome 2
    p0 = float(probs[0])
    return (p0, p0 + float(probs[1]))


# the cumulative outcome table of an honest run, indexed 3 * e1 + e2
_CUM_TABLE = tuple(_cumulative(_PROB_TABLE[pair]) for pair in product(range(3), range(3)))

# each party's contribution to the exponent pair: basis II adds (1, 1),
# encoding n adds (n, -n)
_BASIS_EXPONENT = {BasisChoice.I: 0, BasisChoice.II: 1}

# every draw a run can hold, built once: _CHOICES[basis coin][number] and
# _OUTCOMES[index]
_CHOICES = tuple(
    tuple(PartyChoices(basis, n) for n in range(3)) for basis in (BasisChoice.I, BasisChoice.II)
)
_OUTCOMES = tuple(MeasurementOutcome(k) for k in range(3))


# ---------------------------------------------------------------------------
# attack tables
# ---------------------------------------------------------------------------

# A stock hook acts at one hop.  Before it the run is one of the 9 honest
# states; after it each later party (B and C encode bits) applies one of 4
# operators, indexed 2 * basis coin + number.  A table row is the cumulative
# outcome thresholds for one (pre-hop pair, later operators) combination,
# computed from the same state objects, in the same order, as the state
# path, so a lookup picks the outcome that path would pick.

_LATER_OPERATORS = ((0, 0), (0, 1), (1, 0), (1, 1))  # (basis exponent, number)


class _TapTables(NamedTuple):
    # width: later-operator combinations, 16 at hop 1 (B then C), 4 at hop 2
    # intercept: for intercept-resend, the 9 measurement thresholds per
    #     pre-hop pair; None for a channel
    # rows: outcome thresholds at [pre * width + later] for a channel, or at
    #     [resent ket * width + later] for intercept-resend
    width: int
    intercept: Optional[Tuple[Tuple[float, float], ...]]
    rows: Tuple[Tuple[float, float], ...]


def _carry(state, later: Sequence[Tuple[int, int]]):
    # the later parties' operators applied to a state object, one by one
    for t, n in later:
        op = PhaseOperator(TAU * (t + n) / 3.0, TAU * (t - n) / 3.0)
        if isinstance(state, PureState):
            state = apply_operator(op, state)
        else:
            state = apply_operator_mixed(op, state)
    return state


@functools.lru_cache(maxsize=64)
def _compile_tap(location: int, tap: Tuple[str, bytes]) -> _TapTables:
    """The outcome tables of a stock hook at ``location``.

    ``tap`` is the hook's ``tap`` value; the tables depend on nothing else.
    """
    laters = list(product(_LATER_OPERATORS, repeat=3 - location))

    def rows(states):
        return tuple(
            _cumulative(outcome_probabilities(_carry(state, later)))
            for state in states
            for later in laters
        )

    pre_states = [_STATE_TABLE[pair] for pair in product(range(3), range(3))]
    source = tap_source(tap)
    if isinstance(source, AttackChannel):
        return _TapTables(len(laters), None, rows(channel_output(source, s) for s in pre_states))
    intercept = tuple(intercept_thresholds(source, s) for s in pre_states)
    return _TapTables(len(laters), intercept, rows(source))


# ---------------------------------------------------------------------------
# single runs
# ---------------------------------------------------------------------------


def execute_run(
    choices_a: PartyChoices,
    choices_b: PartyChoices,
    choices_c: PartyChoices,
    attack=None,
    eta: float = 1.0,
    rng: Optional[RandomSource] = None,
    run_id: int = 0,
    uniforms: Optional[Sequence[float]] = None,
) -> RunRecord:
    """Send one qutrit through A, B and C and measure it.

    Args:
        choices_a / choices_b / choices_c: secret basis and number draws.
        attack: optional AttackHook acting after A (location 1) or after B
            (location 2).
        eta: detector efficiency; with probability 1 - eta the run records
            no click (outcome None) and can never become valid.
        rng: loyal parties' randomness, needed when ``uniforms`` is not
            given: it then supplies the click uniform (when eta < 1) and
            the measurement uniform (when the detector clicked).
        run_id: identifier stamped on the record.
        uniforms: the attempt's pre-drawn (click, measurement) uniforms in
            [0, 1), as a batch draws them.

    The honest path tracks phase exponents mod 3 and looks the outcome up
    in a cumulative table.  An engaged stock hook looks its outcome up in
    the hook's own tables; a hand-built hook promotes the run to explicit
    state objects from its hop onward.
    """
    if choices_b.number not in (0, 1):
        raise ValueError(f"general B encodes a bit, got {choices_b.number!r}")
    if choices_c.number not in (0, 1):
        raise ValueError(f"general C encodes a bit, got {choices_c.number!r}")
    if not 0.0 < eta <= 1.0:
        raise ValueError(f"eta must be in (0, 1], got {eta!r}")
    if uniforms is None and rng is None:
        raise ValueError("execute_run needs a RandomSource or pre-drawn uniforms")

    cum = None
    state = None
    trace = None
    if attack is not None and attack.engages():
        trace = attack.description
        if attack.tap is not None:
            tables = _compile_tap(attack.location, attack.tap)
            cum = _tap_row(tables, attack, choices_a, choices_b, choices_c)
        else:
            state = _attacked_state(attack, (choices_a, choices_b, choices_c))

    if uniforms is None:
        clicked = eta >= 1.0 or float(rng.random()) < eta
        u = float(rng.random()) if clicked else 0.0
    else:
        u_click, u = uniforms
        clicked = eta >= 1.0 or u_click < eta
    outcome = None
    if clicked:
        if state is not None:
            cum = _cumulative(outcome_probabilities(state))
        elif cum is None:
            t = (
                (choices_a.basis is BasisChoice.II)
                + (choices_b.basis is BasisChoice.II)
                + (choices_c.basis is BasisChoice.II)
            )
            s = choices_a.number + choices_b.number + choices_c.number
            cum = _CUM_TABLE[3 * ((t + s) % 3) + (t - s) % 3]
        outcome = _OUTCOMES[0 if u < cum[0] else 1 if u < cum[1] else 2]
    return RunRecord(run_id, choices_a, choices_b, choices_c, outcome, trace)


def _tap_row(
    tables: _TapTables,
    attack: AttackHook,
    choices_a: PartyChoices,
    choices_b: PartyChoices,
    choices_c: PartyChoices,
) -> Tuple[float, float]:
    # the outcome thresholds of an engaged stock hook's run; intercept-resend
    # first measures with one uniform from the hook's own generator, as its
    # transform does, and records the resent ket in the hook's memory
    ta = choices_a.basis is BasisChoice.II
    tb = choices_b.basis is BasisChoice.II
    tc = choices_c.basis is BasisChoice.II
    later = 2 * tc + choices_c.number
    if attack.location == 1:
        e = ta + choices_a.number
        f = ta - choices_a.number
        later += 4 * (2 * tb + choices_b.number)
    else:
        e = ta + tb + choices_a.number + choices_b.number
        f = ta + tb - choices_a.number - choices_b.number
    pre = 3 * (e % 3) + f % 3
    if tables.intercept is None:
        return tables.rows[pre * tables.width + later]
    c0, c1 = tables.intercept[pre]
    u = attack.rng.random()
    ket = 0 if u < c0 else 1 if u < c1 else 2
    attack.memory.append(ket)
    return tables.rows[ket * tables.width + later]


def _attacked_state(attack, parties: Sequence[PartyChoices]):
    # the honest exponents up to the hook's hop, then the hook's output
    # carried through the later parties' operators as a state object
    e1 = 0
    e2 = 0
    for choices in parties[: attack.location]:
        t = _BASIS_EXPONENT[choices.basis]
        e1 = (e1 + t + choices.number) % 3
        e2 = (e2 + t - choices.number) % 3
    state = attack(_STATE_TABLE[(e1, e2)])
    later = [(_BASIS_EXPONENT[c.basis], c.number) for c in parties[attack.location:]]
    return _carry(state, later)


_ANNOUNCE_ORDER = (GeneralId.C, GeneralId.B, GeneralId.A)


def reveal_and_sift(
    record: RunRecord,
    adversary: Optional[BasisAnnouncer] = None,
    claim_policy=None,
) -> RunRecord:
    """Step after the measurement: C's claim, then basis announcements.

    C announces whether outcome 0 fired (``claim_policy`` lets a dishonest
    C claim otherwise).  Without a claimed detection the run is invalid and
    no bases are revealed.  Otherwise bases are announced in reverse order
    C, B, A — a traitor's announcer speaks at its own turn after hearing
    the earlier ones — and the run is valid iff all three match.
    """
    if claim_policy is not None:
        claimed = bool(claim_policy(record.outcome))
    else:
        claimed = record.outcome is not None and record.outcome.index == 0
    record.detection_claimed = claimed
    if not claimed:
        record.bases_announced = None
        record.valid = False
        return record

    if adversary is None:
        a, b, c = record.choices_a.basis, record.choices_b.basis, record.choices_c.basis
        record.bases_announced = (c, b, a)
        record.valid = a is b is c
        return record

    true_bases = {
        GeneralId.A: record.choices_a.basis,
        GeneralId.B: record.choices_b.basis,
        GeneralId.C: record.choices_c.basis,
    }
    heard: Dict[GeneralId, BasisChoice] = {}
    announced = []
    for general in _ANNOUNCE_ORDER:
        if adversary.traitor is general:
            basis = adversary(dict(heard), record)
        else:
            basis = true_bases[general]
        heard[general] = basis
        announced.append(basis)
    record.bases_announced = tuple(announced)
    record.valid = all(b is announced[0] for b in announced)
    return record


# ---------------------------------------------------------------------------
# batches
# ---------------------------------------------------------------------------

# exclusive upper bounds of the six loyal draws of one attempt: the basis
# coins of A, B and C, A's trit, and B's and C's bits
_DRAW_HIGH = (2, 2, 2, 3, 2, 2)


def _run_block(
    hooks: ProtocolHooks,
    eta: float,
    rng: RandomSource,
    size: int,
    records: List[RunRecord],
    stop_after: int = 0,
) -> int:
    """Draw one block of ``size`` attempts and run it row by row.

    Each sifted attempt is appended to ``records``.  With ``stop_after``
    set, the block ends early on its ``stop_after``-th valid run and the
    rest of its rows go unused.  Returns the number of valid runs added.
    """
    attack, announcer, policy = hooks.attack, hooks.basis_announcer, hooks.claim_policy
    rows = rng.integers(0, _DRAW_HIGH, size=(size, 6)).tolist()
    uniforms = rng.random((size, 2)).tolist()
    run_id = len(records)
    n_valid = 0
    for (ta, tb, tc, na, nb, nc), u in zip(rows, uniforms):
        # execute_run and reveal_and_sift are looked up per call, so a
        # wrapper installed on this module sees every attempt
        record = execute_run(
            _CHOICES[ta][na], _CHOICES[tb][nb], _CHOICES[tc][nc], attack, eta, None, run_id, u
        )
        record = reveal_and_sift(record, announcer, policy)
        records.append(record)
        run_id += 1
        if record.valid:
            n_valid += 1
            if n_valid == stop_after:
                break
    return n_valid


def run_attempts(
    n_attempts: int,
    adversary: Union[AdversaryStrategy, ProtocolHooks, None] = None,
    eta: float = 1.0,
    rng: Optional[RandomSource] = None,
) -> List[RunRecord]:
    """Execute a fixed number of attempts (for yield and rate studies).

    ``adversary`` is a strategy, compiled here, or hooks already compiled.
    """
    if rng is None:
        rng = np.random.default_rng()
    if isinstance(adversary, ProtocolHooks):
        hooks = adversary
    else:
        hooks = hooks_for_strategy(adversary if adversary is not None else honest(), rng)
    records: List[RunRecord] = []
    _run_block(hooks, eta, rng, n_attempts, records)
    return records


# attempts allowed per needed valid run, relative to the honest expectation
# of 12 attempts per valid run at unit efficiency
_BUDGET_FACTOR = 100

# a block holds the expected attempts for the valid runs still needed, plus
# this share, so that one block usually finishes an honest batch
_BLOCK_SLACK = 0.1

# probability that a batch ends with fewer than target_length valid runs
# left over after the cross-check
_SHORTFALL_ALPHA = 1e-6


def _shortfall(n: int, target: int, keep: float) -> float:
    """P(Binomial(n, keep) < target), summed in log space from k = target - 1 down."""
    if n < target:
        return 1.0
    lose = 1.0 - keep
    k = target - 1
    term = math.exp(
        math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
        + k * math.log(keep) + (n - k) * math.log(lose)
    )
    total = term
    mode = (n + 1) * keep
    while k > 0:
        # pmf(k - 1) / pmf(k) = k / (n - k + 1) * lose / keep
        term *= k / (n - k + 1) * lose / keep
        k -= 1
        total += term
        if k < mode and term <= total * 1e-17:
            break
    return total


@functools.lru_cache(maxsize=64)
def _runs_for(target: int, check_fraction: float) -> int:
    # smallest n with P(Binomial(n, 1 - f) < target) <= alpha; the search
    # starts at the normal approximation and steps to the exact answer
    keep = 1.0 - check_fraction
    z = NormalDist().inv_cdf(1.0 - _SHORTFALL_ALPHA)
    root = (z * math.sqrt(keep * check_fraction)
            + math.sqrt(z * z * keep * check_fraction + 4.0 * keep * (target - 0.5))) / (2.0 * keep)
    n = math.ceil(root * root)
    if _shortfall(n, target, keep) <= _SHORTFALL_ALPHA:
        while _shortfall(n - 1, target, keep) <= _SHORTFALL_ALPHA:
            n -= 1
    else:
        n += 1
        while _shortfall(n, target, keep) > _SHORTFALL_ALPHA:
            n += 1
    return n


def _valid_runs_needed(config: DistributionConfig) -> int:
    # the cross-check keeps each valid run with probability 1 - f, so the
    # survivors of n valid runs are Binomial(n, 1 - f)
    return _runs_for(config.target_length, config.check_fraction)


def run_batch(
    config: DistributionConfig,
    adversary: Union[AdversaryStrategy, ProtocolHooks, None] = None,
    rng: Optional[RandomSource] = None,
) -> List[RunRecord]:
    """Attempt runs until the batch holds enough valid ones for the target.

    The batch collects the fewest valid runs n for which the cross-check,
    keeping each with probability 1 - f, leaves fewer than L survivors
    with probability at most ``_SHORTFALL_ALPHA``.  Attempts come in
    blocks sized to the valid runs still missing.  An attempt budget of
    _BUDGET_FACTOR times the honest expectation (12 attempts per valid run
    at eta = 1) guards against adversaries that suppress valid runs.
    ``adversary`` is a strategy, compiled here, or hooks already compiled
    from one, which the caller can then share with the cross-check.
    """
    if rng is None:
        rng = np.random.default_rng(config.rng_seed)
    if isinstance(adversary, ProtocolHooks):
        hooks = adversary
    else:
        hooks = hooks_for_strategy(adversary if adversary is not None else honest(), rng)
    eta = config.detector_efficiency
    needed = _valid_runs_needed(config)
    budget = math.ceil(_BUDGET_FACTOR * math.ceil(needed * 12.0 / eta))
    records: List[RunRecord] = []
    n_valid = 0
    while n_valid < needed:
        room = budget - len(records)
        if room <= 0:
            raise AttemptBudgetExceeded(
                f"{n_valid} valid runs after {len(records)} attempts "
                f"(needed {needed}, budget {budget})",
                records,
            )
        missing = needed - n_valid
        size = min(room, math.ceil(missing * 12.0 / eta * (1.0 + _BLOCK_SLACK)))
        n_valid += _run_block(hooks, eta, rng, size, records, missing)
    return records


# ---------------------------------------------------------------------------
# cross-check and list assembly
# ---------------------------------------------------------------------------

_GENERALS = (GeneralId.A, GeneralId.B, GeneralId.C)


def cross_check(
    records: Sequence[RunRecord],
    config: DistributionConfig,
    adversary: Optional[RevealHook] = None,
    rng: Optional[RandomSource] = None,
) -> CrossCheckReport:
    """Sacrifice a random subset of valid runs to test the sum rule.

    Each valid run is checked independently with probability
    ``config.check_fraction``.  For a checked run the three numbers are
    announced one by one in a fresh uniformly random order; a traitor's
    RevealHook answers at the traitor's turn, knowing what was said so
    far.  A checked position is inconsistent when the announced numbers do
    not sum to 0 mod 3.  Checked runs are marked consumed either way.
    """
    if rng is None:
        raise ValueError("cross_check needs a RandomSource")
    checked: List[int] = []
    orders: Dict[int, Tuple[GeneralId, GeneralId, GeneralId]] = {}
    inconsistent = set()
    traitor_last = set()
    for record in records:
        if not record.valid:
            continue
        if float(rng.random()) >= config.check_fraction:
            continue
        record.consumed_by_check = True
        perm = rng.permutation(3)
        order = tuple(_GENERALS[int(i)] for i in perm)
        true_numbers = {
            GeneralId.A: record.choices_a.number,
            GeneralId.B: record.choices_b.number,
            GeneralId.C: record.choices_c.number,
        }
        revealed: Dict[GeneralId, int] = {}
        for general in order:
            if adversary is not None and adversary.traitor is general:
                value = int(adversary(record.run_id, dict(revealed), record))
            else:
                value = true_numbers[general]
            revealed[general] = value
        checked.append(record.run_id)
        orders[record.run_id] = order
        if sum(revealed.values()) % 3 != 0:
            inconsistent.add(record.run_id)
        if adversary is not None and order[-1] is adversary.traitor:
            traitor_last.add(record.run_id)
    rate = len(inconsistent) / len(checked) if checked else 0.0
    verdict = (
        CheckVerdict.TAMPERING_DETECTED
        if rate > config.inconsistency_threshold
        else CheckVerdict.CLEAN
    )
    return CrossCheckReport(
        checked_positions=frozenset(checked),
        reveal_orders=orders,
        inconsistencies=len(inconsistent),
        inconsistent_positions=frozenset(inconsistent),
        traitor_last_count=len(traitor_last),
        traitor_last_positions=frozenset(traitor_last),
        verdict=verdict,
    )


def assemble_lists(records: Sequence[RunRecord]) -> CorrelatedLists:
    """Transcribe surviving valid runs into the three secret lists."""
    survivors = [r for r in records if r.valid and not r.consumed_by_check]
    return CorrelatedLists(
        list_a=tuple(r.choices_a.number for r in survivors),
        list_b=tuple(r.choices_b.number for r in survivors),
        list_c=tuple(r.choices_c.number for r in survivors),
    )


_VALID_COMBOS = ((0, 0, 0), (1, 1, 1), (2, 0, 1), (2, 1, 0))


def sample_correlated_lists(length: int, rng: RandomSource) -> CorrelatedLists:
    """Draw lists directly from the honest valid-run distribution.

    Equivalent in law to running the full quantum pipeline and assembling
    the survivors (each position is an independent draw over the four
    combinations), at a tiny fraction of the cost.  Intended for studies of
    the agreement phase in isolation.
    """
    picks = rng.integers(0, 4, size=length)
    a, b, c = [], [], []
    for i in picks:
        x, y, z = _VALID_COMBOS[int(i)]
        a.append(x)
        b.append(y)
        c.append(z)
    return CorrelatedLists(tuple(a), tuple(b), tuple(c))


# ---------------------------------------------------------------------------
# closed-form expectations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TheoreticalStatistics:
    """Exact honest-protocol expectations (rationals, eta = 1)."""

    attempt_yield: Fraction
    mixed_basis_detection_rate: Fraction
    combo_distribution: Dict[str, Fraction]
    a_marginal: Dict[int, Fraction]


def _exact_outcome0(e1: int, e2: int) -> Fraction:
    # |1 + w^e1 + w^e2|^2 / 9 takes only the values 1, 0, 1/3
    if e1 == 0 and e2 == 0:
        return Fraction(1)
    if (e1 + e2) % 3 == 0:
        return Fraction(0)
    return Fraction(1, 3)


def theoretical_statistics() -> TheoreticalStatistics:
    """Enumerate all 96 honest configurations with exact weights.

    8 basis combinations x 12 number combinations, each equally likely;
    a run is valid when the bases match and outcome 0 fires.
    """
    total_yield = Fraction(0)
    mixed_weight = Fraction(0)
    mixed_detect = Fraction(0)
    combo_weight: Dict[str, Fraction] = {}
    for bases in product((BasisChoice.I, BasisChoice.II), repeat=3):
        for a, b, c in product(range(3), range(2), range(2)):
            weight = Fraction(1, 8) * Fraction(1, 12)
            t = sum(_BASIS_EXPONENT[x] for x in bases)
            s = a + b + c
            p0 = _exact_outcome0((t + s) % 3, (t - s) % 3)
            matched = bases[0] is bases[1] is bases[2]
            if matched:
                contribution = weight * p0
                total_yield += contribution
                if contribution:
                    key = f"{a}{b}{c}"
                    combo_weight[key] = combo_weight.get(key, Fraction(0)) + contribution
            else:
                mixed_weight += weight
                mixed_detect += weight * p0
    combo_distribution = {k: v / total_yield for k, v in sorted(combo_weight.items())}
    a_marginal: Dict[int, Fraction] = {0: Fraction(0), 1: Fraction(0), 2: Fraction(0)}
    for key, p in combo_distribution.items():
        a_marginal[int(key[0])] += p
    return TheoreticalStatistics(
        attempt_yield=total_yield,
        mixed_basis_detection_rate=mixed_detect / mixed_weight,
        combo_distribution=combo_distribution,
        a_marginal=a_marginal,
    )


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------


def run_records_to_jsonl(records: Sequence[RunRecord]) -> str:
    """Serialise records as JSON lines, field names matching the dataclass."""

    def choices_json(choices: PartyChoices):
        return {"basis": choices.basis.value, "number": choices.number}

    lines = []
    for r in records:
        lines.append(
            json.dumps(
                {
                    "run_id": r.run_id,
                    "choices_a": choices_json(r.choices_a),
                    "choices_b": choices_json(r.choices_b),
                    "choices_c": choices_json(r.choices_c),
                    "outcome": None if r.outcome is None else r.outcome.index,
                    "attack_trace": r.attack_trace,
                    "detection_claimed": r.detection_claimed,
                    "bases_announced": (
                        None
                        if r.bases_announced is None
                        else [b.value for b in r.bases_announced]
                    ),
                    "valid": r.valid,
                    "consumed_by_check": r.consumed_by_check,
                },
                sort_keys=True,
            )
        )
    return "\n".join(lines)


def lists_to_jsonl(lists: CorrelatedLists, party) -> str:
    """Serialise one party's view of the lists as JSON lines.

    Only the requested party's own numbers are included, mirroring the
    privacy model (nobody ever sees another party's list).
    """
    if isinstance(party, str):
        party = GeneralId(party.upper())
    own = {
        GeneralId.A: ("l_a", lists.list_a),
        GeneralId.B: ("l_b", lists.list_b),
        GeneralId.C: ("l_c", lists.list_c),
    }[party]
    name, values = own
    return "\n".join(
        json.dumps({"position": j, name: v}, sort_keys=True)
        for j, v in enumerate(values)
    )

"""Adversary machinery: quantum channel attacks and dishonest announcements.

A strategy description (:mod:`qutrit_dba.strategies`) is compiled here into
concrete hooks that the distribution pipeline calls at well-defined points:

* ``AttackHook``     - tampers with the qutrit between two hops;
* claim policy       - C's (possibly false) detection announcement;
* ``BasisAnnouncer`` - a traitor's basis announcement during sifting;
* ``RevealHook``     - a traitor's number announcement during cross-check.

Classical traitor behaviour in the agreement phase (conflicting commands,
forged forwards) also lives here so that every dishonest action is defined
in one place.  Hooks carry their own random generators and memory; a hook
with rate 0 never draws randomness, so the honest record stream is
reproduced bit for bit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .agreement import AgreementConfig, Plan, PositionMessage, build_position_message
from .qutrit_core import (
    AttackChannel,
    MixedState,
    _trusted_mixed,
    PureState,
    RandomSource,
    apply_channel,
    fourier_basis,
)
from .strategies import (
    AdversaryKind,
    AdversaryStrategy,
    AttackBasis,
    GeneralId,
    LiarPolicy,
    channel_from_name,
)

__all__ = [
    "AttackHook",
    "RevealHook",
    "BasisAnnouncer",
    "ProtocolHooks",
    "make_intercept_resend",
    "make_kraus_attack",
    "channel_output",
    "intercept_thresholds",
    "tap_source",
    "false_detection_report",
    "reveal_liar",
    "truthful_reveal",
    "adaptive_basis_announcer",
    "traitor_a_conflicting_messages",
    "traitor_forge_forward",
    "forged_forward",
    "hooks_for_strategy",
    "reveal_asymmetry_zscore",
    "asymmetry_detected",
    "channel_from_name",
]


# ---------------------------------------------------------------------------
# hook types
# ---------------------------------------------------------------------------


@dataclass
class AttackHook:
    """State transformation bound to one hop of the qutrit's path.

    ``transform`` accepts a PureState or MixedState and returns either; the
    pipeline stays in whichever representation comes back.  ``memory`` is
    the adversary's private record (e.g. intercepted outcomes); ``rate``
    scales participation per run using the hook's own generator so the
    loyal parties' randomness is untouched.
    """

    location: int
    transform: Callable
    description: str = ""
    rate: float = 1.0
    rng: Optional[RandomSource] = None
    memory: List = field(default_factory=list)
    # set only by make_kraus_attack and make_intercept_resend: what the hook
    # does at its hop, as ("kraus", the bytes of its Kraus operators) or
    # ("intercept", the bytes of the basis kets' amplitudes).  The
    # distribution layer tabulates a hook's outcomes from this value alone;
    # a hand-built hook leaves it unset and runs through its transform.
    tap: Optional[Tuple[str, bytes]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.location not in (1, 2):
            raise ValueError(f"hop location must be 1 or 2, got {self.location!r}")
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {self.rate!r}")

    def engages(self) -> bool:
        """Decide participation for one run without touching shared rngs."""
        if self.rate >= 1.0:
            return True
        if self.rate <= 0.0:
            return False
        if self.rng is None:
            raise ValueError("a fractional-rate hook needs its own RandomSource")
        return float(self.rng.random()) < self.rate

    def __call__(self, state):
        return self.transform(state)


@dataclass
class RevealHook:
    """A traitor's number announcement during the cross-check.

    ``announce(position, revealed, record)`` is called when it is the
    traitor's turn; ``revealed`` maps the generals who already spoke to
    their announced numbers.  The returned number must lie in the traitor's
    alphabet ({0,1,2} for A, {0,1} for B and C).
    """

    traitor: GeneralId
    announce: Callable
    description: str = ""

    def __call__(self, position: int, revealed: Dict, record) -> int:
        return self.announce(position, revealed, record)


@dataclass
class BasisAnnouncer:
    """A traitor's basis announcement during sifting (step order C, B, A).

    ``announce(heard, record)`` receives the announcements already made.
    """

    traitor: GeneralId
    announce: Callable
    description: str = ""

    def __call__(self, heard: Dict, record):
        return self.announce(heard, record)


@dataclass
class ProtocolHooks:
    """Everything one adversary strategy injects into a protocol execution."""

    attack: Optional[AttackHook] = None
    claim_policy: Optional[Callable] = None
    basis_announcer: Optional[BasisAnnouncer] = None
    number_reveal: Optional[RevealHook] = None
    traitor: Optional[GeneralId] = None


def _party_number(record, general: GeneralId) -> int:
    choices = {
        GeneralId.A: record.choices_a,
        GeneralId.B: record.choices_b,
        GeneralId.C: record.choices_c,
    }[general]
    return int(choices.number)


# ---------------------------------------------------------------------------
# quantum attacks
# ---------------------------------------------------------------------------

_COMPUTATIONAL_KETS = tuple(
    PureState(np.eye(3, dtype=complex)[k]) for k in range(3)
)
_FOURIER_KETS = fourier_basis()


def make_intercept_resend(
    basis: AttackBasis,
    location: int,
    rng: Optional[RandomSource] = None,
    rate: float = 1.0,
) -> AttackHook:
    """Eavesdropper measures the passing qutrit and forwards the outcome ket.

    The measurement is a full von Neumann measurement in the chosen basis;
    the sampled outcome index is appended to the hook's memory.  Resending
    an eigenstate erases the phase relations every later party relies on,
    except when the state already was an eigenstate of the chosen basis.
    """
    kets = (
        _COMPUTATIONAL_KETS if basis is AttackBasis.COMPUTATIONAL else _FOURIER_KETS
    )

    def transform(state):
        c0, c1 = intercept_thresholds(kets, state)
        u = hook.rng.random()
        outcome = 0 if u < c0 else 1 if u < c1 else 2
        hook.memory.append(outcome)
        return kets[outcome]

    hook = AttackHook(
        location=location,
        transform=transform,
        description=f"intercept_resend[{basis.value}]@hop{location}",
        rate=rate,
        rng=rng if rng is not None else np.random.default_rng(),
    )
    hook.tap = ("intercept", np.array([k.amplitudes for k in kets]).tobytes())
    return hook


def intercept_thresholds(kets: Sequence[PureState], state) -> Tuple[float, float]:
    """Born-rule thresholds (p0, p0 + p1) of measuring ``state`` in a basis.

    A uniform below the first threshold picks outcome 0, below the second
    outcome 1, otherwise 2.
    """
    bras = np.array([k.amplitudes for k in kets]).conj()
    if isinstance(state, PureState):
        probs = np.abs(bras @ state.amplitudes) ** 2
    else:
        probs = np.einsum("ki,ij,kj->k", bras, state.matrix, bras.conj()).real
    probs = np.clip(probs, 0.0, None)
    probs /= probs.sum()
    p0 = float(probs[0])
    return (p0, p0 + float(probs[1]))


def make_kraus_attack(
    channel: AttackChannel,
    location: int,
    rng: Optional[RandomSource] = None,
    rate: float = 1.0,
) -> AttackHook:
    """Apply an arbitrary trace-preserving channel at one hop.

    The channel validates its Kraus completeness at construction, so any
    state it produces satisfies the density-matrix invariants.
    """

    hook = AttackHook(
        location=location,
        transform=lambda state: channel_output(channel, state),
        description=f"kraus[{channel.name}]@hop{location}",
        rate=rate,
        rng=rng,
    )
    hook.tap = ("kraus", b"".join(k.tobytes() for k in channel.kraus_operators))
    return hook


def channel_output(channel: AttackChannel, state):
    """The state a channel hook forwards when ``state`` reaches its hop."""
    # |psi><psi| of a valid pure state is a valid density matrix
    rho = _trusted_mixed(state.density()) if isinstance(state, PureState) else state
    return apply_channel(channel, rho)


def tap_source(tap: Tuple[str, bytes]):
    """The channel, or the tuple of basis kets, that a hook's ``tap`` names.

    Rebuilt from the bytes alone, so equal ``tap`` values name equal
    attacks whichever hook carried them.
    """
    kind, key = tap
    matrices = np.frombuffer(key, dtype=complex).reshape(-1, 3, 3).copy()
    if kind == "kraus":
        return AttackChannel(tuple(matrices))
    return tuple(PureState(amplitudes) for amplitudes in matrices[0])


# ---------------------------------------------------------------------------
# dishonest announcements
# ---------------------------------------------------------------------------


def false_detection_report(rate: float, rng: Optional[RandomSource] = None) -> Callable:
    """C's announcement policy that claims detections that never happened.

    Returns a callable mapping the true outcome (MeasurementOutcome or None
    for no click) to the boolean C announces.  Genuine detections are always
    claimed; a fraction ``rate`` of the remaining runs is claimed falsely.
    """
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"rate must be in [0, 1], got {rate!r}")
    if rate > 0.0 and rng is None:
        rng = np.random.default_rng()

    def policy(outcome) -> bool:
        if outcome is not None and outcome.index == 0:
            return True
        if rate <= 0.0:
            return False
        return float(rng.random()) < rate

    policy.description = f"false_detection_report[{rate}]"
    return policy


@functools.lru_cache(maxsize=None)
def _likely_sum_mod3(unheard: Tuple[GeneralId, ...]) -> int:
    # distribution of the unheard parties' number sum mod 3, using the
    # honest priors (A uniform over trits, B and C uniform over bits);
    # return the most probable residue, smallest on ties.  Memoised: a
    # liar has at most three distinct tuples of unheard generals
    dist = {0: 1.0}
    for g in unheard:
        values = (0, 1, 2) if g is GeneralId.A else (0, 1)
        new: Dict[int, float] = {}
        for total, p in dist.items():
            for v in values:
                key = (total + v) % 3
                new[key] = new.get(key, 0.0) + p / len(values)
        dist = new
    best = max(dist.values())
    return min(r for r, p in dist.items() if abs(p - best) < 1e-12)


def reveal_liar(
    policy: LiarPolicy,
    traitor: GeneralId = GeneralId.A,
    rng: Optional[RandomSource] = None,
) -> RevealHook:
    """Cross-check announcement strategy of a traitor hiding an attack.

    When the traitor reveals last he knows both other numbers and announces
    the unique value completing the sum to 0 mod 3 (a calibrated policy
    deliberately misses at its error rate).  When he is not last he can only
    guess the most likely completion, which fails often enough to be caught.
    """
    if rng is None:
        rng = np.random.default_rng()
    others = tuple(g for g in GeneralId if g is not traitor)

    def announce(position: int, revealed: Dict, record) -> int:
        heard = sum(int(v) for v in revealed.values()) % 3
        unheard = tuple(g for g in others if g not in revealed)
        if not unheard:
            value = (-heard) % 3
            if not policy.always_consistent and policy.error_rate > 0.0:
                if float(rng.random()) < policy.error_rate:
                    value = (value + int(rng.integers(1, 3))) % 3
        else:
            value = (-(heard + _likely_sum_mod3(unheard))) % 3
        if traitor is not GeneralId.A and value == 2:
            # lieutenants encode bits; announcing a 2 would expose the lie
            # immediately, so fall back to the true number
            value = _party_number(record, traitor)
        return value

    label = "always_consistent" if policy.always_consistent else (
        f"calibrated[{policy.error_rate}]"
    )
    return RevealHook(traitor=traitor, announce=announce, description=f"reveal_liar[{label}]")


def truthful_reveal(traitor: GeneralId) -> RevealHook:
    """Baseline hook: the marked general reveals honestly (for statistics)."""
    return RevealHook(
        traitor=traitor,
        announce=lambda position, revealed, record: _party_number(record, traitor),
        description="truthful",
    )


def adaptive_basis_announcer(traitor: GeneralId) -> BasisAnnouncer:
    """Announce whatever basis keeps the run alive, if one exists.

    Sifting announcements run C, B, A; a traitor who speaks after others
    copies their common basis.  A tampered run rescued this way still
    carries a uniformly random number sum, so the cross-check catches it.
    """

    def announce(heard: Dict, record):
        values = list(heard.values())
        if values and all(v == values[0] for v in values):
            return values[0]
        choices = {
            GeneralId.A: record.choices_a,
            GeneralId.B: record.choices_b,
            GeneralId.C: record.choices_c,
        }[traitor]
        return choices.basis

    return BasisAnnouncer(traitor=traitor, announce=announce, description="adaptive_basis")


# ---------------------------------------------------------------------------
# classical traitor moves (agreement phase)
# ---------------------------------------------------------------------------


def traitor_a_conflicting_messages(l_a: Sequence[int]) -> Tuple[PositionMessage, PositionMessage]:
    """Commander's two-faced step (i): plan 0 to B, plan 1 to C.

    Each message is built truthfully from A's own list, so each receiver's
    local verification passes; only the exchange in step (ii) exposes the
    conflict and drives both lieutenants to the fallback plan.
    """
    return (
        build_position_message(l_a, Plan.ATTACK),
        build_position_message(l_a, Plan.RETREAT),
    )


def traitor_forge_forward(
    own_list: Sequence[int],
    received_plan: Plan,
    target_plan: Plan,
    needed_length: int,
    rng: RandomSource,
) -> PositionMessage:
    """Forge the step-(ii) forward toward a different plan.

    The forger only knows his own list.  Positions where it equals the
    target plan split evenly between runs where the commander also holds
    the target and runs where the commander holds 2 (and the receiver then
    holds the opposite bit), so each sampled position survives the
    receiver's value check with probability 1/2.
    """
    received = Plan(received_plan)
    target = Plan(target_plan)
    if target == received:
        raise ValueError("forgery target must differ from the received plan")
    candidates = np.flatnonzero(np.asarray(own_list) == int(target)).astype(np.int64, copy=False)
    if len(candidates) < needed_length:
        raise ValueError(
            f"cannot forge {needed_length} positions from {len(candidates)} candidates"
        )
    picked = rng.choice(len(candidates), size=needed_length, replace=False)
    return PositionMessage._of(target, np.sort(candidates[picked]))


def forged_forward(
    own_list: Sequence[int],
    received_plan: Plan,
    target_plan: Optional[Plan],
    length: int,
    cfg: AgreementConfig,
    rng: RandomSource,
) -> Tuple[Plan, PositionMessage]:
    """Step-(ii) payload of a forging lieutenant, sized to pass length checks."""
    if target_plan is None:
        target_plan = Plan(1 - int(Plan(received_plan)))
    needed = round(cfg.expected_fraction * length)
    msg = traitor_forge_forward(own_list, received_plan, target_plan, needed, rng)
    return msg.plan, msg


# ---------------------------------------------------------------------------
# strategy compilation
# ---------------------------------------------------------------------------


def hooks_for_strategy(
    strategy: AdversaryStrategy, rng: Optional[RandomSource] = None
) -> ProtocolHooks:
    """Compile a strategy description into distribution-phase hooks.

    Args:
        strategy: what the adversary does.
        rng: parent generator; stochastic hooks get spawned children so that
            strategies without hooks leave the loyal stream untouched.

    Classical traitor kinds produce no distribution hooks (their moves are
    in the agreement phase) but still mark the traitor identity.
    """
    kind = strategy.kind
    hooks = ProtocolHooks(traitor=strategy.traitor)
    if kind is AdversaryKind.NONE or kind in (
        AdversaryKind.TRAITOR_A_CONFLICTING,
        AdversaryKind.TRAITOR_B_FORGE_FORWARD,
        AdversaryKind.TRAITOR_C_FORGE_FORWARD,
    ):
        return hooks
    if rng is None:
        rng = np.random.default_rng()

    if kind is AdversaryKind.INTERCEPT_RESEND:
        hooks.attack = make_intercept_resend(
            strategy.basis, strategy.location, rng=rng.spawn(1)[0], rate=strategy.attack_rate
        )
    elif kind is AdversaryKind.KRAUS_ATTACK:
        hooks.attack = make_kraus_attack(
            strategy.channel, strategy.location, rng=rng.spawn(1)[0], rate=strategy.attack_rate
        )
    elif kind is AdversaryKind.FALSE_DETECTION_REPORT:
        hooks.claim_policy = false_detection_report(strategy.report_rate, rng.spawn(1)[0])
    elif kind is AdversaryKind.REVEAL_LIAR:
        attack_rng, liar_rng = rng.spawn(2)
        hooks.attack = make_intercept_resend(
            strategy.basis, strategy.location, rng=attack_rng, rate=strategy.attack_rate
        )
        hooks.number_reveal = reveal_liar(strategy.policy, strategy.traitor, liar_rng)
    else:  # pragma: no cover - enum is closed
        raise ValueError(f"unhandled adversary kind {kind!r}")
    if strategy.adaptive_basis:
        hooks.basis_announcer = adaptive_basis_announcer(strategy.traitor)
    return hooks


# ---------------------------------------------------------------------------
# "suspiciously perfect" detector
# ---------------------------------------------------------------------------


def reveal_asymmetry_zscore(report) -> float:
    """Two-sample proportion z between traitor-last and traitor-not-last errors.

    An always-consistent liar shows zero inconsistencies whenever he reveals
    last but guesses wrong often when he does not; honest announcements are
    equally (in)consistent in both subsets.  Returns 0 when either subset is
    empty or the pooled rate is degenerate.
    """
    last = set(report.traitor_last_positions)
    bad = set(report.inconsistent_positions)
    checked = set(report.checked_positions)
    n_last = len(last)
    n_rest = len(checked) - n_last
    if n_last == 0 or n_rest == 0:
        return 0.0
    x_last = len(bad & last)
    x_rest = len(bad) - x_last
    pooled = (x_last + x_rest) / (n_last + n_rest)
    if pooled <= 0.0 or pooled >= 1.0:
        return 0.0
    se = math.sqrt(pooled * (1.0 - pooled) * (1.0 / n_last + 1.0 / n_rest))
    return (x_rest / n_rest - x_last / n_last) / se


def asymmetry_detected(report, threshold: float = 5.0) -> bool:
    """Flag a reveal-order asymmetry beyond ``threshold`` standard errors."""
    return abs(reveal_asymmetry_zscore(report)) > threshold

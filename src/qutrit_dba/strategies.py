"""Identities and adversary strategy descriptions.

A strategy is a passive description of who the traitor is and what they do;
the machinery that turns a strategy into protocol hooks lives in
:mod:`qutrit_dba.adversaries`.  Keeping the vocabulary here avoids import
cycles between the distribution and agreement layers.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Callable, Dict, FrozenSet, Optional, Tuple

from .qutrit_core import (
    AttackChannel,
    dephasing_channel,
    depolarizing_channel,
    identity_channel,
    phase_shift_channel,
)

__all__ = [
    "GeneralId",
    "AttackBasis",
    "LiarPolicy",
    "AdversaryKind",
    "AdversaryStrategy",
    "honest",
    "intercept_resend",
    "kraus_attack",
    "false_detection_report",
    "reveal_liar",
    "traitor_a_conflicting",
    "traitor_b_forge_forward",
    "traitor_c_forge_forward",
    "Param",
    "PARAMS",
    "AdversaryEntry",
    "ADVERSARIES",
    "channel_from_name",
    "strategy_from_name",
]


class GeneralId(Enum):
    """The three generals: A sends the commands, B and C are lieutenants."""

    A = "A"
    B = "B"
    C = "C"


class AttackBasis(Enum):
    """Basis an intercept-resend eavesdropper measures and reprepares in."""

    COMPUTATIONAL = "computational"
    FOURIER = "fourier"


@dataclass(frozen=True)
class LiarPolicy:
    """How a traitor answers cross-check reveals when asked before last.

    always_consistent: whenever the traitor reveals last they complete the
    sum to 0 mod 3, and when forced to guess they pick the most likely
    completion.  The resulting too-good-to-be-true consistency is itself a
    statistical tell.

    calibrated: same, but deliberately misses with the given rate when
    revealing last, to blend in with an expected inconsistency level.
    """

    always_consistent: bool = True
    error_rate: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.error_rate <= 1.0:
            raise ValueError(f"error_rate must be in [0, 1], got {self.error_rate!r}")
        if self.always_consistent and self.error_rate != 0.0:
            raise ValueError("always_consistent policy cannot carry an error rate")

    @classmethod
    def calibrated(cls, error_rate: float) -> "LiarPolicy":
        return cls(always_consistent=False, error_rate=error_rate)


class AdversaryKind(Enum):
    NONE = "none"
    INTERCEPT_RESEND = "intercept_resend"
    KRAUS_ATTACK = "kraus_attack"
    FALSE_DETECTION_REPORT = "false_detection_report"
    REVEAL_LIAR = "reveal_liar"
    TRAITOR_A_CONFLICTING = "traitor_a_conflicting"
    TRAITOR_B_FORGE_FORWARD = "traitor_b_forge_forward"
    TRAITOR_C_FORGE_FORWARD = "traitor_c_forge_forward"


# which channel hops each general can touch: hop 1 is A->B, hop 2 is B->C
_REACHABLE_HOPS = {
    GeneralId.A: (1,),
    GeneralId.B: (1, 2),
    GeneralId.C: (2,),
}


@dataclass(frozen=True)
class AdversaryStrategy:
    """One adversary configuration for a whole protocol execution.

    Only the fields relevant to ``kind`` may be set; the constructor
    enforces that and that the traitor can physically reach the attacked
    hop.  ``attack_rate`` scales per-run participation for the quantum
    attacks; at 0.0 a run is statistically identical to an honest one.
    """

    kind: AdversaryKind = AdversaryKind.NONE
    traitor: Optional[GeneralId] = None
    basis: Optional[AttackBasis] = None
    location: Optional[int] = None
    channel: Optional[AttackChannel] = None
    report_rate: Optional[float] = None
    policy: Optional[LiarPolicy] = None
    target_plan: Optional[int] = None
    attack_rate: float = 1.0
    adaptive_basis: bool = False

    def __post_init__(self) -> None:
        if not 0.0 <= self.attack_rate <= 1.0:
            raise ValueError(f"attack_rate must be in [0, 1], got {self.attack_rate!r}")
        entry = _BY_KIND[self.kind.value]
        for name in (param.field for param in PARAMS.values() if param.field):
            value = getattr(self, name)
            if value is not None and name not in entry.fields:
                raise ValueError(f"{self.kind.value} does not take field {name!r}")
            # a forger without a target plan forges the opposite of what it got
            if value is None and name in entry.fields and name != "target_plan":
                raise ValueError(f"{self.kind.value} needs {name}")
        if entry.traitor is not None and self.traitor is not entry.traitor:
            raise ValueError(f"{self.kind.value} requires traitor {entry.traitor.value}")
        if self.location is not None and self.location not in _REACHABLE_HOPS[self.traitor]:
            raise ValueError(f"general {self.traitor.value} cannot touch hop {self.location}")
        if self.report_rate is not None and not 0.0 <= self.report_rate <= 1.0:
            raise ValueError(f"report_rate must be in [0, 1], got {self.report_rate!r}")
        if self.target_plan is not None and self.target_plan not in (0, 1):
            raise ValueError(f"target_plan must be 0 or 1, got {self.target_plan!r}")


# ---------------------------------------------------------------------------
# factories
# ---------------------------------------------------------------------------


def honest() -> AdversaryStrategy:
    return AdversaryStrategy()


def _receiver(location: int) -> GeneralId:
    # a tap's default traitor is the general the tapped hop leads to
    return GeneralId.B if location == 1 else GeneralId.C


def intercept_resend(
    basis: AttackBasis = AttackBasis.COMPUTATIONAL,
    location: int = 1,
    traitor: Optional[GeneralId] = None,
    attack_rate: float = 1.0,
) -> AdversaryStrategy:
    """Eavesdropper measures the qutrit on one hop and resends the outcome state."""
    return AdversaryStrategy(
        kind=AdversaryKind.INTERCEPT_RESEND, traitor=traitor or _receiver(location),
        basis=basis, location=location, attack_rate=attack_rate,
    )


def kraus_attack(
    channel: AttackChannel,
    location: int = 1,
    traitor: Optional[GeneralId] = None,
    attack_rate: float = 1.0,
) -> AdversaryStrategy:
    """Arbitrary channel applied to the qutrit on one hop."""
    return AdversaryStrategy(
        kind=AdversaryKind.KRAUS_ATTACK, traitor=traitor or _receiver(location),
        channel=channel, location=location, attack_rate=attack_rate,
    )


def false_detection_report(rate: float = 1.0) -> AdversaryStrategy:
    """C claims detections that did not happen, inflating the valid-run pool."""
    return AdversaryStrategy(
        kind=AdversaryKind.FALSE_DETECTION_REPORT, traitor=GeneralId.C, report_rate=rate
    )


def reveal_liar(
    policy: LiarPolicy = LiarPolicy(),
    traitor: GeneralId = GeneralId.A,
    basis: AttackBasis = AttackBasis.COMPUTATIONAL,
    location: Optional[int] = None,
) -> AdversaryStrategy:
    """Traitor eavesdrops and then lies at cross-check when revealing last.

    Defaults to traitor A: A's numbers range over all three trits, so A can
    always complete the revealed sum to 0 mod 3 when asked last.
    """
    if location is None:
        location = _REACHABLE_HOPS[traitor][0]
    return AdversaryStrategy(
        kind=AdversaryKind.REVEAL_LIAR, traitor=traitor, policy=policy, basis=basis,
        location=location,
    )


def traitor_a_conflicting() -> AdversaryStrategy:
    """Commander sends plan 0 to one lieutenant and plan 1 to the other."""
    return AdversaryStrategy(kind=AdversaryKind.TRAITOR_A_CONFLICTING, traitor=GeneralId.A)


def traitor_b_forge_forward(target_plan: Optional[int] = None) -> AdversaryStrategy:
    """B forwards a forged command message to C instead of the real one."""
    return AdversaryStrategy(
        kind=AdversaryKind.TRAITOR_B_FORGE_FORWARD, traitor=GeneralId.B, target_plan=target_plan
    )


def traitor_c_forge_forward(target_plan: Optional[int] = None) -> AdversaryStrategy:
    """C forwards a forged command message to B instead of the real one."""
    return AdversaryStrategy(
        kind=AdversaryKind.TRAITOR_C_FORGE_FORWARD, traitor=GeneralId.C, target_plan=target_plan
    )


# ---------------------------------------------------------------------------
# the adversary table: each kind's scenario name, factory and parameters
# ---------------------------------------------------------------------------


def _lookup(table: Dict, name, what: str):
    try:
        return table[name]
    except (KeyError, TypeError):
        raise ValueError(f"unknown {what} {name!r}; known: {', '.join(sorted(table))}") from None


_CHANNELS = {
    "identity": lambda number, strength: identity_channel(),
    "dephasing": lambda number, strength: dephasing_channel("computational"),
    "fourier_dephasing": lambda number, strength: dephasing_channel("fourier"),
    "phase_shift": lambda number, strength: phase_shift_channel(int(number)),
    "depolarizing": lambda number, strength: depolarizing_channel(float(strength)),
}

_POLICIES = {
    "always_consistent": lambda error_rate: LiarPolicy(),
    "calibrated": LiarPolicy.calibrated,
}


def channel_from_name(name: str, number: int = 1, strength: float = 1.0) -> AttackChannel:
    """Look up a stock channel by name (for CLI/config selection)."""
    return _lookup(_CHANNELS, name, "channel")(number, strength)


def _kraus_from_names(channel="dephasing", number=1, strength=1.0, **kwargs):
    return kraus_attack(channel_from_name(channel, number, strength), **kwargs)


def _liar_from_names(policy="always_consistent", error_rate=0.0, **kwargs):
    # the error rate belongs to the calibrated policy and is ignored otherwise
    return reveal_liar(_lookup(_POLICIES, policy, "liar policy")(error_rate), **kwargs)


def _general(value) -> GeneralId:
    return GeneralId(value.upper() if isinstance(value, str) else value)


@dataclass(frozen=True)
class Param:
    """How a command line or JSON spec writes one strategy parameter.

    ``parse`` turns the written value into the factory argument, and
    ``choices`` are the values the command line offers.  ``field`` is the
    AdversaryStrategy field the parameter sets, if it sets one.
    """

    parse: Callable
    choices: Tuple = ()
    help: Optional[str] = None
    field: Optional[str] = None


PARAMS: Dict[str, Param] = {
    "traitor": Param(_general, ("a", "b", "c", "A", "B", "C"), field="traitor"),
    "basis": Param(AttackBasis, tuple(b.value for b in AttackBasis), field="basis"),
    "location": Param(int, (1, 2), field="location"),
    "attack_rate": Param(float, help="per-run attack participation"),
    "channel": Param(str, tuple(_CHANNELS), field="channel"),
    "number": Param(int, help="phase-shift channel exponent"),
    "strength": Param(float, help="depolarizing strength"),
    "rate": Param(float, help="false-report rate", field="report_rate"),
    "policy": Param(str, tuple(_POLICIES), field="policy"),
    "error_rate": Param(float, help="calibrated liar error rate"),
    "target_plan": Param(int, (0, 1), field="target_plan"),
}


@dataclass(frozen=True)
class AdversaryEntry:
    """One adversary kind: its stock scenario name, its factory, the PARAMS
    the factory takes and the general the kind is tied to, if any."""

    kind: AdversaryKind
    scenario: str
    factory: Callable[..., AdversaryStrategy]
    params: Tuple[str, ...] = ()
    traitor: Optional[GeneralId] = None

    @cached_property
    def fields(self) -> FrozenSet[str]:
        """The AdversaryStrategy fields this kind sets."""
        fields = {PARAMS[name].field for name in self.params} - {None}
        return frozenset(fields | {"traitor"} if self.traitor else fields)

    def build(self, values: Dict) -> AdversaryStrategy:
        """Parse written parameter values and call the factory.

        A parameter this kind does not take is a ValueError; a value of
        None counts as absent.
        """
        unknown = sorted(set(values) - set(self.params))
        if unknown:
            raise ValueError(f"{self.kind.value} does not take {', '.join(unknown)}")
        kwargs = {}
        for name, value in values.items():
            if value is None:
                continue
            try:
                kwargs[name] = PARAMS[name].parse(value)
            except (TypeError, ValueError) as exc:
                raise ValueError(f"bad {name} {value!r}: {exc}") from None
        return self.factory(**kwargs)


_TAP = ("location", "traitor", "attack_rate")

ADVERSARIES: Tuple[AdversaryEntry, ...] = (
    AdversaryEntry(AdversaryKind.NONE, "honest", honest),
    AdversaryEntry(AdversaryKind.INTERCEPT_RESEND, "intercept_resend", intercept_resend,
                   ("basis", *_TAP)),
    AdversaryEntry(AdversaryKind.KRAUS_ATTACK, "kraus_attack", _kraus_from_names,
                   ("channel", "number", "strength", *_TAP)),
    AdversaryEntry(AdversaryKind.FALSE_DETECTION_REPORT, "false_report",
                   false_detection_report, ("rate",), GeneralId.C),
    AdversaryEntry(AdversaryKind.REVEAL_LIAR, "reveal_liar", _liar_from_names,
                   ("policy", "error_rate", "traitor", "basis", "location")),
    AdversaryEntry(AdversaryKind.TRAITOR_A_CONFLICTING, "traitor_a", traitor_a_conflicting,
                   traitor=GeneralId.A),
    AdversaryEntry(AdversaryKind.TRAITOR_B_FORGE_FORWARD, "traitor_b",
                   traitor_b_forge_forward, ("target_plan",), GeneralId.B),
    AdversaryEntry(AdversaryKind.TRAITOR_C_FORGE_FORWARD, "traitor_c",
                   traitor_c_forge_forward, ("target_plan",), GeneralId.C),
)

_BY_KIND = {entry.kind.value: entry for entry in ADVERSARIES}


def strategy_from_name(name: str, **params) -> AdversaryStrategy:
    """Build a strategy from its kind name and written parameter values.

    Values are as a command line or JSON spec gives them, for example
    ``basis="fourier"``, ``traitor="b"`` or ``channel="phase_shift",
    number=2``.  A parameter the kind does not take is a ValueError.
    """
    return _lookup(_BY_KIND, name, "strategy").build(params)

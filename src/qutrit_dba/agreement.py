"""Classical detectable-agreement phase over the distributed lists.

The commander A announces a plan to each lieutenant together with the
positions of his list carrying that plan.  Because the three lists are
correlated (a 0 or 1 in A's list is mirrored in both other lists), each
lieutenant can verify the position message against his own list, forward it
to the other lieutenant (or ``BOT`` after detecting garbage), and resolve
the final decision from a fixed six-row case table plus one catch-all row.

Decisions are judged by two conditions: broadcast (all loyal generals end
up with the same decision) and validity (if the commander is loyal, every
loyal general follows his plan or aborts).

A message holds its positions as one read-only, strictly increasing
``int64`` array (``PositionMessage.indices``), and the lists arrive as the
rows of one read-only ``int8`` array (``CorrelatedLists.values``).  So a
message is built with one ``flatnonzero``, verified with one bound check
and one fancy-index comparison, and forwarded as the same frozen object.
``PositionMessage.positions`` still reads as a tuple of plain ints, made
on demand for callers and export; the phase itself never reads it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum, IntEnum
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from .strategies import AdversaryKind, AdversaryStrategy, GeneralId, honest

__all__ = [
    "Plan",
    "Bot",
    "BOT",
    "MessageContent",
    "PositionMessage",
    "VerdictReason",
    "ConsistencyVerdict",
    "AgreementConfig",
    "DecisionKind",
    "Decision",
    "TableCase",
    "LieutenantRecord",
    "AgreementTranscript",
    "build_position_message",
    "verify_against_list",
    "forward_message",
    "table_case",
    "final_decision",
    "run_agreement",
    "evaluate_conditions",
    "transcript_to_json",
]


class Plan(IntEnum):
    """Binary command: 0 = attack, 1 = retreat."""

    ATTACK = 0
    RETREAT = 1


class Bot:
    """Step-(ii) marker meaning "I received inconsistent data"."""

    _instance: Optional["Bot"] = None

    def __new__(cls) -> "Bot":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "BOT"


BOT = Bot()

MessageContent = Union[Plan, Bot]


def _integer_array(values, high: int, dtype, what: str) -> np.ndarray:
    """``values`` as a new read-only 1-D array of ``dtype``, each in [0, high].

    An integer array is range-checked in one pass.  Anything else (Python
    ints beyond int64, floats, objects) goes through ``int()`` one value at
    a time, as the tuple form always did.  A value out of range, or one
    that is no integer, raises ValueError.
    """
    arr = np.asarray(values if hasattr(values, "__len__") else list(values))
    if arr.ndim != 1:
        raise ValueError(f"{what} must be a flat sequence of integers")
    if arr.dtype.kind in "biu":
        if arr.size and (arr.min() < 0 or arr.max() > high):
            raise ValueError(f"{what} must lie in [0, {high}]")
    else:
        try:
            ints = [int(v) for v in arr.tolist()]
        except (TypeError, OverflowError) as err:
            raise ValueError(f"{what} must be integers") from err
        if any(not 0 <= v <= high for v in ints):
            raise ValueError(f"{what} must lie in [0, {high}]")
        arr = ints
    out = np.array(arr, dtype=dtype)
    out.flags.writeable = False
    return out


_INT64_MAX = int(np.iinfo(np.int64).max)


class PositionMessage:
    """A plan plus the positions of the sender's list where it appears.

    positions must be strictly increasing and non-negative; range against
    the list length is the receiver's job.  They are stored once, as the
    read-only ``int64`` array ``indices``; ``positions`` is a tuple view of
    it.  A message is immutable, and equal messages compare ``==`` as a
    plain bool.
    """

    __slots__ = ("plan", "indices")

    def __init__(self, plan: Plan, positions: Sequence[int]) -> None:
        indices = _integer_array(positions, _INT64_MAX, np.int64, "positions")
        if (indices[1:] <= indices[:-1]).any():
            raise ValueError("positions must be strictly increasing")
        object.__setattr__(self, "plan", Plan(plan))
        object.__setattr__(self, "indices", indices)

    @classmethod
    def _of(cls, plan: Plan, indices: np.ndarray) -> "PositionMessage":
        # trusted: ``indices`` is a fresh, strictly increasing int64 array
        msg = object.__new__(cls)
        indices.flags.writeable = False
        object.__setattr__(msg, "plan", plan)
        object.__setattr__(msg, "indices", indices)
        return msg

    @property
    def positions(self) -> Tuple[int, ...]:
        return tuple(self.indices.tolist())

    def __len__(self) -> int:
        return len(self.indices)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PositionMessage):
            return NotImplemented
        return self.plan == other.plan and bool(np.array_equal(self.indices, other.indices))

    def __hash__(self) -> int:
        return hash((self.plan, self.indices.tobytes()))

    def __setattr__(self, name, value):
        raise AttributeError("PositionMessage is immutable")

    def __reduce__(self):
        return PositionMessage, (self.plan, self.indices)

    def __repr__(self) -> str:
        return f"PositionMessage(plan={self.plan!r}, positions={self.positions!r})"


class VerdictReason(Enum):
    VALUE_MISMATCH = "value_mismatch"
    LENGTH_TOO_SHORT = "length_too_short"
    LENGTH_TOO_LONG = "length_too_long"


@dataclass(frozen=True)
class ConsistencyVerdict:
    """Outcome of checking a position message against one's own list."""

    consistent: bool
    reason: Optional[VerdictReason] = None

    def __post_init__(self) -> None:
        if self.consistent and self.reason is not None:
            raise ValueError("a consistent verdict cannot carry a failure reason")
        if not self.consistent and self.reason is None:
            raise ValueError("an inconsistent verdict needs a failure reason")


# The acceptable message length is centred on expected_fraction * L with a
# relative tolerance, but never narrower than six standard deviations of an
# honest count (which is binomial with success probability
# expected_fraction).  Without the floor, honest runs at realistic L would
# be rejected at a measurable rate and loyal generals could disagree.
_LENGTH_SIGMA_FLOOR = 6.0


@dataclass(frozen=True)
class AgreementConfig:
    """Tunables of the classical phase, identical at every loyal general."""

    expected_fraction: float = 0.25
    length_tolerance: float = 0.25
    fallback_plan: Plan = Plan.RETREAT

    def __post_init__(self) -> None:
        if not 0.0 < self.expected_fraction < 1.0:
            raise ValueError(
                f"expected_fraction must be in (0, 1), got {self.expected_fraction!r}"
            )
        if not 0.0 < self.length_tolerance < 1.0:
            raise ValueError(
                f"length_tolerance must be in (0, 1), got {self.length_tolerance!r}"
            )
        object.__setattr__(self, "fallback_plan", Plan(self.fallback_plan))

    def length_bounds(self, length: int) -> Tuple[float, float]:
        """Accepted message-length window for lists of the given length."""
        center = self.expected_fraction * length
        sigma = math.sqrt(length * self.expected_fraction * (1.0 - self.expected_fraction))
        halfwidth = max(self.length_tolerance * center, _LENGTH_SIGMA_FLOOR * sigma)
        return center - halfwidth, center + halfwidth


class DecisionKind(Enum):
    FOLLOW = "follow"
    ABORT = "abort"


@dataclass(frozen=True)
class Decision:
    """Final stance of one general: follow a specific plan, or abort."""

    kind: DecisionKind
    plan: Optional[Plan] = None

    def __post_init__(self) -> None:
        if self.kind is DecisionKind.FOLLOW:
            if self.plan is None:
                raise ValueError("a follow decision needs a plan")
            object.__setattr__(self, "plan", Plan(self.plan))
        elif self.plan is not None:
            raise ValueError("an abort decision cannot carry a plan")

    @classmethod
    def follow(cls, plan: Plan) -> "Decision":
        return cls(DecisionKind.FOLLOW, Plan(plan))

    @classmethod
    def abort(cls) -> "Decision":
        return cls(DecisionKind.ABORT)

    def __repr__(self) -> str:
        if self.kind is DecisionKind.FOLLOW:
            return f"Follow({int(self.plan)})"
        return "Abort"


class TableCase(Enum):
    """Row of the lieutenant decision table resolved at the end of step (ii).

    The first six rows each have at least one verifiable message in hand;
    BOTH_INCONSISTENT covers the remaining combination (own commander data
    bad and the peer's forward also failing verification) and maps to
    Abort, since nothing trustworthy is left to follow.
    """

    IIA = "iia"
    IIB = "iib"
    IIC = "iic"
    IID = "iid"
    IIE = "iie"
    IIF = "iif"
    BOTH_INCONSISTENT = "both_inconsistent"


# ---------------------------------------------------------------------------
# message primitives
# ---------------------------------------------------------------------------


def build_position_message(l: Sequence[int], plan: Plan) -> PositionMessage:
    """Step (i): list every position of ``l`` holding ``plan``.

    Args:
        l: the sender's trit list (a row of ``CorrelatedLists.values``, or
            any sequence of ints).
        plan: binary plan value announced alongside the positions.
    """
    p = Plan(plan)
    indices = np.flatnonzero(np.asarray(l) == int(p)).astype(np.int64, copy=False)
    return PositionMessage._of(p, indices)


def verify_against_list(
    msg: PositionMessage,
    own: Sequence[int],
    L: int,
    cfg: AgreementConfig,
) -> ConsistencyVerdict:
    """Step (ia): check a received position message against one's own list.

    The value condition is checked first: every referenced position of the
    receiver's list must hold the announced plan, and a position outside
    [0, L) counts as a value mismatch.  Only then is the message length
    compared against ``cfg.length_bounds(L)``.
    """
    indices = msg.indices
    n = len(indices)
    # positions are increasing, so the last one is the largest
    if n and (indices[-1] >= L or (np.asarray(own)[indices] != int(msg.plan)).any()):
        return ConsistencyVerdict(False, VerdictReason.VALUE_MISMATCH)
    low, high = cfg.length_bounds(L)
    if n < low:
        return ConsistencyVerdict(False, VerdictReason.LENGTH_TOO_SHORT)
    if n > high:
        return ConsistencyVerdict(False, VerdictReason.LENGTH_TOO_LONG)
    return ConsistencyVerdict(True)


def forward_message(
    verdict: ConsistencyVerdict, received: PositionMessage
) -> Tuple[MessageContent, Optional[PositionMessage]]:
    """Step (ii): loyal forwarding of the commander's message.

    A lieutenant who found the commander's message consistent passes it on
    verbatim (the same immutable message); otherwise he announces BOT and
    sends no list.
    """
    if verdict.consistent:
        return received.plan, received
    return BOT, None


# ---------------------------------------------------------------------------
# decision table
# ---------------------------------------------------------------------------


def table_case(
    own_commander: Tuple[MessageContent, ConsistencyVerdict],
    peer: Tuple[MessageContent, Optional[ConsistencyVerdict]],
) -> TableCase:
    """Resolve which row of the decision table applies for one lieutenant.

    Args:
        own_commander: the plan the commander announced to this lieutenant
            and this lieutenant's verdict on the accompanying list.
        peer: what the other lieutenant sent in step (ii) (a plan or BOT)
            and, when it is a plan, the verdict on the forwarded list.
    """
    own_content, own_verdict = own_commander
    peer_content, peer_verdict = peer
    if isinstance(own_content, Bot):
        raise ValueError("the commander announces a plan, never BOT")
    if isinstance(peer_content, Bot) != (peer_verdict is None):
        raise ValueError("peer verdict must be present exactly when peer sent a plan")

    if own_verdict.consistent:
        if isinstance(peer_content, Bot):
            return TableCase.IIC
        if peer_verdict.consistent:
            return TableCase.IIA if peer_content == own_content else TableCase.IIB
        return TableCase.IID
    if isinstance(peer_content, Bot):
        return TableCase.IIF
    if peer_verdict.consistent:
        return TableCase.IIE
    return TableCase.BOTH_INCONSISTENT


def final_decision(
    own_commander: Tuple[MessageContent, ConsistencyVerdict],
    peer: Tuple[MessageContent, Optional[ConsistencyVerdict]],
    cfg: AgreementConfig,
) -> Decision:
    """Map the resolved table row to a decision.

    Rows: (iia) both consistent and equal → follow the common plan; (iib)
    both consistent but conflicting → the commander is the traitor, follow
    the pre-agreed fallback; (iic)/(iid) own data good, peer unhelpful →
    follow own plan; (iie) own data bad but the peer's forward verifies →
    follow the peer's plan; (iif) own data bad and peer saw garbage too →
    fallback; both inconsistent → abort.
    """
    case = table_case(own_commander, peer)
    own_content, _ = own_commander
    peer_content, _ = peer
    if case is TableCase.IIA:
        return Decision.follow(own_content)
    if case is TableCase.IIB:
        return Decision.follow(cfg.fallback_plan)
    if case in (TableCase.IIC, TableCase.IID):
        return Decision.follow(own_content)
    if case is TableCase.IIE:
        return Decision.follow(peer_content)
    if case is TableCase.IIF:
        return Decision.follow(cfg.fallback_plan)
    return Decision.abort()


# ---------------------------------------------------------------------------
# transcripts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LieutenantRecord:
    """Everything one lieutenant saw, sent and decided."""

    general: GeneralId
    commander_content: MessageContent
    commander_message: PositionMessage
    commander_verdict: ConsistencyVerdict
    sent_content: MessageContent
    sent_message: Optional[PositionMessage]
    received_content: MessageContent
    received_message: Optional[PositionMessage]
    received_verdict: Optional[ConsistencyVerdict]
    case: TableCase
    decision: Decision


@dataclass(frozen=True)
class AgreementTranscript:
    """Full record of one agreement execution.

    Edges: A→B and A→C live in the lieutenant records' commander fields,
    B→C in ``lieutenant_b.sent_*`` and C→B in ``lieutenant_c.sent_*``.
    """

    commander_plan: Plan
    traitor: Optional[GeneralId]
    decision_a: Decision
    lieutenant_b: LieutenantRecord
    lieutenant_c: LieutenantRecord
    cfg: AgreementConfig

    def decisions(self) -> dict:
        return {
            GeneralId.A: self.decision_a,
            GeneralId.B: self.lieutenant_b.decision,
            GeneralId.C: self.lieutenant_c.decision,
        }

    def loyal_generals(self) -> Tuple[GeneralId, ...]:
        return tuple(g for g in GeneralId if g is not self.traitor)


def run_agreement(
    lists,
    commander_plan: Plan,
    adversary: Optional[AdversaryStrategy] = None,
    rng=None,
    cfg: Optional[AgreementConfig] = None,
) -> AgreementTranscript:
    """Execute steps (i)-(ii) and the decision table on distributed lists.

    Args:
        lists: CorrelatedLists from a completed distribution phase.
        commander_plan: the plan a loyal A announces (a traitorous A uses
            it as the plan shown to B and inverts it for C).
        adversary: strategy in effect; classical traitor kinds actively
            interfere here, every other kind behaves honestly in this phase.
        rng: randomness for forged messages; unused on honest paths.
        cfg: agreement tunables, defaulted.
    """
    from . import adversaries  # deferred: adversaries depends on this module

    if adversary is None:
        adversary = honest()
    if cfg is None:
        cfg = AgreementConfig()
    if rng is None:
        rng = _DEFAULT_RNG()
    plan = Plan(commander_plan)
    kind = adversary.kind
    L = lists.length
    list_a, list_b, list_c = lists.values

    # step (i): the commander announces a plan and positions to each
    # lieutenant; a conflicting commander splits the plans but keeps each
    # message individually truthful so that both verify cleanly
    if kind is AdversaryKind.TRAITOR_A_CONFLICTING:
        m_ab, m_ac = adversaries.traitor_a_conflicting_messages(list_a)
        if plan is Plan.RETREAT:
            m_ab, m_ac = m_ac, m_ab
        plan_to_b, plan_to_c = m_ab.plan, m_ac.plan
    else:
        plan_to_b = plan_to_c = plan
        m_ab = m_ac = build_position_message(list_a, plan)

    # step (ia): local verification against own lists
    verdict_b = verify_against_list(m_ab, list_b, L, cfg)
    verdict_c = verify_against_list(m_ac, list_c, L, cfg)

    # step (ii): symmetric exchange between the lieutenants
    sent_b = forward_message(verdict_b, m_ab)
    sent_c = forward_message(verdict_c, m_ac)
    if kind is AdversaryKind.TRAITOR_B_FORGE_FORWARD:
        target = None if adversary.target_plan is None else Plan(adversary.target_plan)
        sent_b = adversaries.forged_forward(list_b, plan_to_b, target, L, cfg, rng)
    elif kind is AdversaryKind.TRAITOR_C_FORGE_FORWARD:
        target = None if adversary.target_plan is None else Plan(adversary.target_plan)
        sent_c = adversaries.forged_forward(list_c, plan_to_c, target, L, cfg, rng)

    received_verdict_b = (
        verify_against_list(sent_c[1], list_b, L, cfg) if sent_c[1] is not None else None
    )
    received_verdict_c = (
        verify_against_list(sent_b[1], list_c, L, cfg) if sent_b[1] is not None else None
    )

    case_b = table_case((plan_to_b, verdict_b), (sent_c[0], received_verdict_b))
    case_c = table_case((plan_to_c, verdict_c), (sent_b[0], received_verdict_c))
    decision_b = final_decision((plan_to_b, verdict_b), (sent_c[0], received_verdict_b), cfg)
    decision_c = final_decision((plan_to_c, verdict_c), (sent_b[0], received_verdict_c), cfg)

    # a loyal commander follows his own plan; a traitor's recorded stance
    # is cosmetic since the conditions only quantify over loyal generals
    if adversary.traitor is GeneralId.A:
        decision_a = Decision.follow(plan_to_b)
    else:
        decision_a = Decision.follow(plan)
    if kind is AdversaryKind.TRAITOR_B_FORGE_FORWARD:
        decision_b = Decision.follow(sent_b[0])
    elif kind is AdversaryKind.TRAITOR_C_FORGE_FORWARD:
        decision_c = Decision.follow(sent_c[0])

    record_b = LieutenantRecord(
        general=GeneralId.B,
        commander_content=plan_to_b,
        commander_message=m_ab,
        commander_verdict=verdict_b,
        sent_content=sent_b[0],
        sent_message=sent_b[1],
        received_content=sent_c[0],
        received_message=sent_c[1],
        received_verdict=received_verdict_b,
        case=case_b,
        decision=decision_b,
    )
    record_c = LieutenantRecord(
        general=GeneralId.C,
        commander_content=plan_to_c,
        commander_message=m_ac,
        commander_verdict=verdict_c,
        sent_content=sent_c[0],
        sent_message=sent_c[1],
        received_content=sent_b[0],
        received_message=sent_b[1],
        received_verdict=received_verdict_c,
        case=case_c,
        decision=decision_c,
    )
    return AgreementTranscript(
        commander_plan=plan,
        traitor=adversary.traitor,
        decision_a=decision_a,
        lieutenant_b=record_b,
        lieutenant_c=record_c,
        cfg=cfg,
    )


def _DEFAULT_RNG():
    import numpy as np

    return np.random.default_rng(0)


def evaluate_conditions(t: AgreementTranscript) -> Tuple[bool, bool]:
    """Check the two agreement conditions on a finished transcript.

    Returns:
        (broadcast, validity): broadcast holds when all loyal generals'
        decisions are identical; validity holds when a loyal commander's
        plan is either followed or the general aborted, for every loyal
        general (vacuously true when the commander is the traitor).
    """
    decisions = t.decisions()
    loyal = t.loyal_generals()
    loyal_decisions = [decisions[g] for g in loyal]
    broadcast = all(d == loyal_decisions[0] for d in loyal_decisions)
    if t.traitor is GeneralId.A:
        validity = True
    else:
        allowed = (Decision.follow(t.commander_plan), Decision.abort())
        validity = all(d in allowed for d in loyal_decisions)
    return broadcast, validity


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------


def _content_json(content: MessageContent):
    return "bot" if isinstance(content, Bot) else int(content)


def _verdict_json(verdict: Optional[ConsistencyVerdict]):
    if verdict is None:
        return None
    return {
        "consistent": verdict.consistent,
        "reason": verdict.reason.value if verdict.reason else None,
    }


def _decision_json(decision: Decision):
    return {
        "kind": decision.kind.value,
        "plan": None if decision.plan is None else int(decision.plan),
    }


def transcript_to_json(t: AgreementTranscript, indent: Optional[int] = None) -> str:
    """Serialise a transcript: edges, verdicts, cases and decisions."""

    def edge(sender, receiver, content, message):
        return {
            "edge": f"{sender}->{receiver}",
            "content": _content_json(content),
            "positions": None if message is None else message.indices.tolist(),
        }

    b, c = t.lieutenant_b, t.lieutenant_c
    payload = {
        "commander_plan": int(t.commander_plan),
        "traitor": t.traitor.value if t.traitor else None,
        "edges": [
            edge("A", "B", b.commander_content, b.commander_message),
            edge("A", "C", c.commander_content, c.commander_message),
            edge("B", "C", b.sent_content, b.sent_message),
            edge("C", "B", c.sent_content, c.sent_message),
        ],
        "verdicts": {
            "B": {
                "commander": _verdict_json(b.commander_verdict),
                "peer": _verdict_json(b.received_verdict),
            },
            "C": {
                "commander": _verdict_json(c.commander_verdict),
                "peer": _verdict_json(c.received_verdict),
            },
        },
        "cases": {"B": b.case.value, "C": c.case.value},
        "decisions": {g.value: _decision_json(d) for g, d in t.decisions().items()},
    }
    return json.dumps(payload, indent=indent, sort_keys=True)

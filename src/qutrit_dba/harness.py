"""Scenario runner and CLI: full protocol executions with reports.

A scenario names an adversary configuration; a trial is one complete
protocol execution (distribution batch, cross-check, then either a joint
abort on detected tampering or list assembly and the agreement phase).
Trials derive independent generators from (seed, trial_id), so reports are
reproducible and trials can be split across workers and merged.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict, dataclass, field, replace
from enum import Enum
from typing import Dict, List, Optional, Sequence

import numpy as np

from . import adversaries, distribution
from .agreement import AgreementConfig, Plan, run_agreement, evaluate_conditions
from .distribution import (
    AttemptBudgetExceeded,
    CheckVerdict,
    DistributionConfig,
)
from .strategies import ADVERSARIES, PARAMS, AdversaryStrategy, GeneralId, strategy_from_name

__all__ = [
    "SCHEMA_VERSION",
    "Scenario",
    "SimulationSpec",
    "TrialOutcome",
    "ScenarioReport",
    "UsageError",
    "build_strategy",
    "run_trial",
    "run_scenario",
    "merge_reports",
    "emit_report",
    "parse_report",
    "parse_cli",
    "main",
]

SCHEMA_VERSION = 1


# one stock scenario per adversary kind, plus CUSTOM for a kind with
# parameters or a ready-made strategy
Scenario = Enum(
    "Scenario",
    [(entry.scenario.upper(), entry.scenario) for entry in ADVERSARIES] + [("CUSTOM", "custom")],
    module=__name__,
)
_STOCK = {entry.scenario: entry for entry in ADVERSARIES}


@dataclass(frozen=True)
class SimulationSpec:
    """Complete, seedable description of a simulation campaign."""

    scenario: Scenario
    trials: int = 1
    distribution: DistributionConfig = field(
        default_factory=lambda: DistributionConfig(target_length=400)
    )
    agreement: AgreementConfig = field(default_factory=AgreementConfig)
    adversary_params: Dict = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed!r}")
        try:
            json.dumps(self.adversary_params)
        except (TypeError, ValueError) as exc:
            raise ValueError(
                f"adversary_params must hold only JSON values ({exc}); give a custom "
                "adversary as {'kind': <strategy kind>, **its parameters}"
            ) from None


@dataclass(frozen=True, slots=True)
class TrialOutcome:
    """Result of one protocol execution, JSON-ready.

    A field a trial never reached keeps its default.  ``decisions`` and
    ``cases`` are shared values: trials with equal decisions (or cases)
    hold the same dict, so they must not be mutated.
    """

    trial_id: int
    attempts: int = 0
    valid_runs: int = 0
    combo_counts: Dict[str, int] = field(default_factory=dict)
    checked: int = 0
    inconsistencies: int = 0
    traitor_last: int = 0
    tampering_detected: bool = False
    aborted: bool = False
    list_length: int = 0
    decisions: Optional[Dict[str, Dict]] = None
    cases: Optional[Dict[str, str]] = None
    broadcast: bool = False
    validity: bool = False
    dba_success: bool = False
    failure: Optional[str] = None


@dataclass(frozen=True)
class ScenarioReport:
    spec: SimulationSpec
    trials: tuple
    aggregates: Dict
    timing_seconds: float = 0.0


# ---------------------------------------------------------------------------
# strategy construction
# ---------------------------------------------------------------------------


def build_strategy(scenario: Scenario, params: Optional[Dict] = None) -> AdversaryStrategy:
    """Turn a scenario name plus parameter map into an adversary strategy.

    ``plan`` (the commander's plan) is consumed by the trial runner, not
    here, and ``adaptive_basis`` applies to any kind.  A stock scenario
    reads the parameters its kind takes and ignores the rest.  The custom
    scenario accepts either a ready-made strategy under ``strategy`` or a
    ``kind`` name with parameters that kind takes.
    """
    scenario = Scenario(scenario)  # a member or its value; anything else is a ValueError
    p = dict(params or {})
    p.pop("plan", None)
    adaptive = bool(p.pop("adaptive_basis", False))

    if scenario is not Scenario.CUSTOM:
        entry = _STOCK[scenario.value]
        strategy = entry.build({k: v for k, v in p.items() if k in entry.params})
    elif isinstance(p.get("strategy"), AdversaryStrategy):
        strategy = p["strategy"]
    elif "kind" in p:
        strategy = strategy_from_name(p.pop("kind"), **p)
    else:
        raise ValueError("custom scenario needs 'kind' or 'strategy'")
    if adaptive:
        strategy = replace(strategy, adaptive_basis=True)
    return strategy


# ---------------------------------------------------------------------------
# trials
# ---------------------------------------------------------------------------


def run_trial(spec: SimulationSpec, trial_id: int) -> TrialOutcome:
    """One full protocol execution with its own derived generator.

    Tampering detected at the cross-check means every loyal general aborts;
    that satisfies both agreement conditions by definition, so the trial
    counts as a success with an abort decision for everyone.
    """
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, trial_id]))
    strategy = build_strategy(spec.scenario, spec.adversary_params)
    plan = Plan(int(spec.adversary_params.get("plan", 0)))
    # one set of hooks: the batch's tap and the cross-check liar share it
    hooks = adversaries.hooks_for_strategy(strategy, rng)
    return TrialOutcome(trial_id=trial_id, **_trial_fields(spec, strategy, plan, hooks, rng))


def _trial_fields(
    spec: SimulationSpec,
    strategy: AdversaryStrategy,
    plan: Plan,
    hooks: adversaries.ProtocolHooks,
    rng: np.random.Generator,
) -> Dict:
    # the TrialOutcome fields of one execution, up to the step it ended at
    try:
        records = distribution.run_batch(spec.distribution, hooks, rng)
    except AttemptBudgetExceeded as exc:
        return dict(_batch_fields(exc.records), failure=str(exc))
    check = distribution.cross_check(records, spec.distribution, hooks.number_reveal, rng)
    done = dict(
        _batch_fields(records),
        checked=check.checked,
        inconsistencies=check.inconsistencies,
        traitor_last=check.traitor_last_count,
    )
    if check.verdict is CheckVerdict.TAMPERING_DETECTED:
        return dict(
            done, tampering_detected=True, aborted=True, broadcast=True, validity=True,
            dba_success=True,
            decisions=_ABORT_DECISIONS,
        )

    target = spec.distribution.target_length
    lists = distribution.assemble_lists(records)
    if lists.length < target:
        return dict(
            done, list_length=lists.length,
            failure=f"only {lists.length} surviving positions for target {target}",
        )
    lists = lists.truncated(target)
    transcript = run_agreement(lists, plan, strategy, rng, cfg=spec.agreement)
    broadcast, validity = evaluate_conditions(transcript)
    return dict(
        done,
        list_length=lists.length,
        decisions=_shared({
            g.value: {"kind": d.kind.value, "plan": None if d.plan is None else int(d.plan)}
            for g, d in transcript.decisions().items()
        }),
        cases=_shared(
            {"B": transcript.lieutenant_b.case.value, "C": transcript.lieutenant_c.case.value}
        ),
        broadcast=broadcast,
        validity=validity,
        dba_success=broadcast and validity,
    )


# one dict per distinct decisions or cases value, keyed by its JSON: the
# values come from a small finite set, and trials that agree share them
_SHARED: Dict[str, Dict] = {}


def _shared(value: Dict) -> Dict:
    return _SHARED.setdefault(json.dumps(value, sort_keys=True), value)


_ABORT_DECISIONS = _shared({g.value: {"kind": "abort", "plan": None} for g in GeneralId})


def _batch_fields(records: Sequence[distribution.RunRecord]) -> Dict:
    # the TrialOutcome fields of a batch, finished or cut off by its budget
    counts: Dict[str, int] = {}
    for r in records:
        if r.valid:
            # combo() returns one shared string per number triple
            combo = r.combo()
            counts[combo] = counts.get(combo, 0) + 1
    return {"attempts": len(records), "valid_runs": sum(counts.values()), "combo_counts": counts}


def _aggregate(trials: Sequence[TrialOutcome]) -> Dict:
    combo_counts: Dict[str, int] = {}
    for t in trials:
        for combo, n in t.combo_counts.items():
            combo_counts[combo] = combo_counts.get(combo, 0) + n
    attempts = sum(t.attempts for t in trials)
    valid = sum(t.valid_runs for t in trials)
    checked = sum(t.checked for t in trials)
    inconsistencies = sum(t.inconsistencies for t in trials)
    traitor_last = sum(t.traitor_last for t in trials)
    tampering = sum(1 for t in trials if t.tampering_detected)
    aborts = sum(1 for t in trials if t.aborted)
    successes = sum(1 for t in trials if t.dba_success)
    failures = sum(1 for t in trials if t.failure is not None)
    n = len(trials)
    return {
        "trials": n,
        "failures": failures,
        "attempts_total": attempts,
        "valid_total": valid,
        "yield": valid / attempts if attempts else 0.0,
        "combo_counts": dict(sorted(combo_counts.items())),
        "combo_frequencies": {
            k: v / valid for k, v in sorted(combo_counts.items())
        } if valid else {},
        "checked_total": checked,
        "inconsistency_total": inconsistencies,
        "inconsistency_rate": inconsistencies / checked if checked else 0.0,
        "traitor_last_total": traitor_last,
        "traitor_last_fraction": traitor_last / checked if checked else 0.0,
        "tampering_detected_total": tampering,
        "detection_rate": tampering / n if n else 0.0,
        "abort_total": aborts,
        "abort_rate": aborts / n if n else 0.0,
        "dba_success_total": successes,
        "dba_success_rate": successes / n if n else 0.0,
    }


def run_scenario(
    spec: SimulationSpec, trial_ids: Optional[Sequence[int]] = None
) -> ScenarioReport:
    """Run all trials of a spec (or a subset, for split/merge workflows)."""
    ids = range(spec.trials) if trial_ids is None else list(trial_ids)
    start = time.perf_counter()
    trials = tuple(run_trial(spec, i) for i in ids)
    elapsed = time.perf_counter() - start
    return ScenarioReport(
        spec=spec,
        trials=trials,
        aggregates=_aggregate(trials),
        timing_seconds=elapsed,
    )


def merge_reports(reports: Sequence[ScenarioReport]) -> ScenarioReport:
    """Combine worker reports for the same spec into one.

    Trials are reordered by trial id, so merging is associative and
    order-independent; aggregates are recomputed from the union.
    """
    if not reports:
        raise ValueError("nothing to merge")
    spec = reports[0].spec
    for r in reports[1:]:
        if r.spec != spec:
            raise ValueError("cannot merge reports with different specs")
    seen: Dict[int, TrialOutcome] = {}
    for r in reports:
        for t in r.trials:
            if t.trial_id in seen and seen[t.trial_id] != t:
                raise ValueError(f"conflicting results for trial {t.trial_id}")
            seen[t.trial_id] = t
    trials = tuple(seen[k] for k in sorted(seen))
    return ScenarioReport(
        spec=spec,
        trials=trials,
        aggregates=_aggregate(trials),
        timing_seconds=sum(r.timing_seconds for r in reports),
    )


# ---------------------------------------------------------------------------
# report serialisation
# ---------------------------------------------------------------------------


def _spec_json(spec: SimulationSpec) -> Dict:
    d = spec.distribution
    a = spec.agreement
    return {
        "scenario": spec.scenario.value,
        "trials": spec.trials,
        "seed": spec.seed,
        "distribution": {
            "target_length": d.target_length,
            "check_fraction": d.check_fraction,
            "detector_efficiency": d.detector_efficiency,
            "inconsistency_threshold": d.inconsistency_threshold,
            "rng_seed": d.rng_seed,
        },
        "agreement": {
            "expected_fraction": a.expected_fraction,
            "length_tolerance": a.length_tolerance,
            "fallback_plan": int(a.fallback_plan),
        },
        "adversary_params": dict(spec.adversary_params),
    }


def emit_report(
    report: ScenarioReport, format: str = "summary", include_timing: bool = False
) -> str:
    """Render a report as a JSON document or a human-readable summary.

    Identical report contents render byte-identically; wall-clock timing is
    excluded unless asked for, precisely so that equal inputs with equal
    seeds compare equal as text.
    """
    if format == "json":
        payload = {
            "schema_version": SCHEMA_VERSION,
            "spec": _spec_json(report.spec),
            "trials": [asdict(t) for t in report.trials],
            "aggregates": report.aggregates,
        }
        if include_timing:
            payload["timing_seconds"] = report.timing_seconds
        return json.dumps(payload, indent=2, sort_keys=True)
    if format != "summary":
        raise ValueError(f"unknown report format {format!r}")
    agg = report.aggregates
    lines = [
        f"scenario             {report.spec.scenario.value}",
        f"trials               {agg['trials']} ({agg['failures']} failed)",
        f"attempts             {agg['attempts_total']}",
        f"valid runs           {agg['valid_total']}",
        f"yield                {agg['yield']:.6f}",
    ]
    for combo, freq in agg["combo_frequencies"].items():
        lines.append(f"combo {combo}            {freq:.4f}")
    lines += [
        f"checked              {agg['checked_total']}",
        f"inconsistency rate   {agg['inconsistency_rate']:.6f}",
        f"traitor last         {agg['traitor_last_fraction']:.4f}",
        f"tampering detected   {agg['tampering_detected_total']} / {agg['trials']}",
        f"abort rate           {agg['abort_rate']:.4f}",
        f"dba success rate     {agg['dba_success_rate']:.6f}",
    ]
    if include_timing:
        lines.append(f"elapsed seconds      {report.timing_seconds:.3f}")
    return "\n".join(lines)


def parse_report(text: str) -> ScenarioReport:
    """Rebuild a ScenarioReport from its JSON rendering."""
    payload = json.loads(text)
    version = payload.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema_version {version!r}")
    s = payload["spec"]
    spec = SimulationSpec(
        scenario=Scenario(s["scenario"]),
        trials=s["trials"],
        distribution=DistributionConfig(**s["distribution"]),
        agreement=AgreementConfig(
            expected_fraction=s["agreement"]["expected_fraction"],
            length_tolerance=s["agreement"]["length_tolerance"],
            fallback_plan=Plan(s["agreement"]["fallback_plan"]),
        ),
        adversary_params=s["adversary_params"],
        seed=s["seed"],
    )
    trials = tuple(TrialOutcome(**t) for t in payload["trials"])
    return ScenarioReport(
        spec=spec,
        trials=trials,
        aggregates=payload["aggregates"],
        timing_seconds=payload.get("timing_seconds", 0.0),
    )


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class UsageError(Exception):
    """Invalid command line; maps to exit status 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); the contract wants 1
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="simulate",
        description="Run whole-protocol simulations and print a report.",
    )
    parser.add_argument(
        "--scenario",
        required=True,
        choices=[s.value for s in Scenario],
        help="adversary configuration to simulate",
    )
    parser.add_argument("--trials", type=int, default=1, help="number of protocol executions")
    parser.add_argument("--length", type=int, default=400, help="target list length L")
    parser.add_argument(
        "--check-fraction", type=float, default=0.2, help="fraction of valid runs sacrificed"
    )
    parser.add_argument(
        "--efficiency", type=float, default=1.0, help="detector efficiency eta"
    )
    parser.add_argument(
        "--inconsistency-threshold",
        type=float,
        default=0.0,
        help="tolerated cross-check inconsistency rate",
    )
    parser.add_argument("--seed", type=int, default=0, help="master seed")
    parser.add_argument(
        "--format", choices=("json", "summary"), default="summary", help="report format"
    )
    parser.add_argument(
        "--expected-fraction", type=float, default=0.25,
        help="expected message length as a fraction of L",
    )
    parser.add_argument(
        "--length-tolerance", type=float, default=0.25,
        help="relative tolerance of the message length check",
    )
    parser.add_argument(
        "--fallback-plan", type=int, choices=(0, 1), default=1,
        help="pre-agreed plan when the commander is caught conflicting",
    )
    # adversary parameters: a stock scenario reads the ones its kind takes
    parser.add_argument("--plan", type=int, choices=(0, 1), help="commander's plan")
    for name, param in PARAMS.items():
        parser.add_argument(
            "--" + name.replace("_", "-"),
            # numbers stay numbers, everything else stays as written
            type=param.parse if param.parse in (int, float) else None,
            choices=param.choices or None,
            help=param.help,
        )
    parser.add_argument("--adaptive-basis", action="store_true", default=None)
    parser.add_argument("--kind", help="strategy kind for the custom scenario")
    return parser


_ADVERSARY_KEYS = ("plan", *PARAMS, "adaptive_basis", "kind")


def _spec_from_namespace(ns: argparse.Namespace) -> SimulationSpec:
    params = {
        key: getattr(ns, key)
        for key in _ADVERSARY_KEYS
        if getattr(ns, key, None) is not None
    }
    try:
        spec = SimulationSpec(
            scenario=Scenario(ns.scenario),
            trials=ns.trials,
            distribution=DistributionConfig(
                target_length=ns.length,
                check_fraction=ns.check_fraction,
                detector_efficiency=ns.efficiency,
                inconsistency_threshold=ns.inconsistency_threshold,
                rng_seed=ns.seed,
            ),
            agreement=AgreementConfig(
                expected_fraction=ns.expected_fraction,
                length_tolerance=ns.length_tolerance,
                fallback_plan=Plan(ns.fallback_plan),
            ),
            adversary_params=params,
            seed=ns.seed,
        )
        build_strategy(spec.scenario, spec.adversary_params)  # fail early
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    return spec


def parse_cli(args: Sequence[str]) -> SimulationSpec:
    """Parse command-line arguments into a SimulationSpec.

    Raises UsageError (exit status 1 in main) on unknown flags, bad values,
    or inconsistent combinations.
    """
    return _spec_from_namespace(_build_parser().parse_args(list(args)))


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Console entry point: 0 on success, 1 on usage error, 2 on failure."""
    args = list(sys.argv[1:] if argv is None else argv)
    try:
        ns = _build_parser().parse_args(args)
        spec = _spec_from_namespace(ns)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        report = run_scenario(spec)
        print(emit_report(report, format=ns.format))
    except Exception as exc:  # internal failure contract
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    # run as a script, this file is a second copy of the module; call the
    # package's own copy so that only one set of its classes is ever used
    from qutrit_dba.harness import main as _package_main

    sys.exit(_package_main())

"""Scenario runner, report serialisation, and the command-line interface."""

from __future__ import annotations

import dataclasses
import gc
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import qutrit_dba.adversaries as adversaries_module
import qutrit_dba.distribution as distribution_module
import qutrit_dba.harness as harness_module
from qutrit_dba.agreement import AgreementConfig, Plan
from qutrit_dba.distribution import DistributionConfig
from qutrit_dba.harness import (
    SCHEMA_VERSION,
    Scenario,
    SimulationSpec,
    UsageError,
    build_strategy,
    emit_report,
    main,
    merge_reports,
    parse_cli,
    parse_report,
    run_scenario,
    run_trial,
)
from qutrit_dba.strategies import (
    ADVERSARIES,
    PARAMS,
    AdversaryKind,
    AttackBasis,
    GeneralId,
    intercept_resend,
    reveal_liar,
)

SMALL = DistributionConfig(target_length=24, check_fraction=0.3)


def small_spec(scenario, trials=2, seed=0, **params):
    return SimulationSpec(
        scenario=Scenario(scenario),
        trials=trials,
        distribution=SMALL,
        agreement=AgreementConfig(),
        adversary_params=params,
        seed=seed,
    )


# --- strategy construction ------------------------------------------------------


def test_build_strategy_covers_every_scenario():
    expected = {
        "honest": AdversaryKind.NONE,
        "intercept_resend": AdversaryKind.INTERCEPT_RESEND,
        "kraus_attack": AdversaryKind.KRAUS_ATTACK,
        "false_report": AdversaryKind.FALSE_DETECTION_REPORT,
        "reveal_liar": AdversaryKind.REVEAL_LIAR,
        "traitor_a": AdversaryKind.TRAITOR_A_CONFLICTING,
        "traitor_b": AdversaryKind.TRAITOR_B_FORGE_FORWARD,
        "traitor_c": AdversaryKind.TRAITOR_C_FORGE_FORWARD,
    }
    for name, kind in expected.items():
        assert build_strategy(Scenario(name), {}).kind is kind


def test_build_strategy_threads_parameters():
    s = build_strategy(
        Scenario.INTERCEPT_RESEND, {"basis": "fourier", "location": 2, "attack_rate": 0.5}
    )
    assert s.basis is AttackBasis.FOURIER
    assert s.location == 2 and s.attack_rate == 0.5

    s = build_strategy(Scenario.KRAUS_ATTACK, {"channel": "phase_shift", "number": 2})
    assert "phase_shift[2]" in s.channel.name

    s = build_strategy(Scenario.REVEAL_LIAR, {"policy": "calibrated", "error_rate": 0.2})
    assert not s.policy.always_consistent and s.policy.error_rate == 0.2

    s = build_strategy(Scenario.TRAITOR_B, {"target_plan": 0})
    assert s.target_plan == int(Plan.ATTACK)

    s = build_strategy(Scenario.INTERCEPT_RESEND, {"adaptive_basis": True})
    assert s.adaptive_basis


def test_build_strategy_custom_paths():
    ready = intercept_resend()
    assert build_strategy(Scenario.CUSTOM, {"strategy": ready}) is ready
    s = build_strategy(Scenario.CUSTOM, {"kind": "false_detection_report", "rate": 0.5})
    assert s.kind is AdversaryKind.FALSE_DETECTION_REPORT and s.report_rate == 0.5
    with pytest.raises(ValueError):
        build_strategy(Scenario.CUSTOM, {})


# the same written parameters given to a stock scenario and to the custom
# scenario under the stock scenario's kind
_DRIFT_CASES = [
    ("honest", {}),
    ("intercept_resend", {}),
    ("intercept_resend", {"basis": "fourier", "location": 2, "traitor": "c", "attack_rate": 0.5}),
    ("kraus_attack", {}),
    ("kraus_attack", {"channel": "phase_shift", "number": 2, "location": 2}),
    ("kraus_attack", {"channel": "depolarizing", "strength": 0.3, "attack_rate": 0.25}),
    ("false_report", {}),
    ("false_report", {"rate": 0.5}),
    ("reveal_liar", {}),
    ("reveal_liar", {"policy": "calibrated", "error_rate": 0.2, "traitor": "b", "basis": "fourier"}),
    ("traitor_a", {}),
    ("traitor_b", {}),
    ("traitor_b", {"target_plan": 0}),
    ("traitor_c", {"target_plan": 1}),
]


def _strategy_fields(strategy):
    fields = {f.name: getattr(strategy, f.name) for f in dataclasses.fields(strategy)}
    if fields["channel"] is not None:
        fields["channel"] = fields["channel"].name
    return fields


@pytest.mark.parametrize("scenario, params", _DRIFT_CASES)
def test_stock_and_custom_paths_build_the_same_strategy(scenario, params):
    stock = build_strategy(Scenario(scenario), params)
    custom = build_strategy(Scenario.CUSTOM, {"kind": stock.kind.value, **params})
    assert _strategy_fields(custom) == _strategy_fields(stock)


def test_drift_cases_and_table_cover_every_kind():
    kinds = {build_strategy(Scenario(name), {}).kind for name, _ in _DRIFT_CASES}
    assert kinds == set(AdversaryKind)
    assert [entry.kind for entry in ADVERSARIES] == list(AdversaryKind)


def test_cli_adversary_flags_are_the_table_parameters():
    taken = {name for entry in ADVERSARIES for name in entry.params}
    assert taken == set(PARAMS)
    argv = ["--scenario", "honest", "--plan", "1", "--adaptive-basis", "--kind", "none"]
    for name, param in PARAMS.items():
        argv += ["--" + name.replace("_", "-"), str(param.choices[0] if param.choices else 1)]
    spec = parse_cli(argv)
    assert set(spec.adversary_params) == taken | {"plan", "kind", "adaptive_basis"}
    assert set(harness_module._ADVERSARY_KEYS) == set(spec.adversary_params)


def test_simulation_spec_validation():
    with pytest.raises(ValueError):
        small_spec("honest", trials=0)
    with pytest.raises(ValueError):
        small_spec("honest", seed=-1)


def test_simulation_spec_holds_only_json_values():
    with pytest.raises(ValueError, match="kind"):
        SimulationSpec(Scenario.CUSTOM, adversary_params={"strategy": reveal_liar()})
    spec = small_spec(
        "custom", trials=2, seed=12, kind="reveal_liar", policy="calibrated", error_rate=0.2
    )
    report = run_scenario(spec)
    assert parse_report(emit_report(report, format="json", include_timing=True)) == report


# --- trials ------------------------------------------------------------------------


def test_honest_trial_succeeds_and_reproduces():
    spec = small_spec("honest", seed=5)
    first = run_trial(spec, 0)
    assert not first.tampering_detected and not first.aborted
    assert first.failure is None
    assert first.list_length == 24
    assert first.dba_success and first.broadcast and first.validity
    assert first.decisions == {
        "A": {"kind": "follow", "plan": 0},
        "B": {"kind": "follow", "plan": 0},
        "C": {"kind": "follow", "plan": 0},
    }
    assert first.cases == {"B": "iia", "C": "iia"}
    assert run_trial(spec, 0) == first
    assert run_trial(spec, 1) != first


def test_commander_plan_parameter_reaches_decisions():
    spec = small_spec("honest", plan=1)
    outcome = run_trial(spec, 0)
    assert outcome.decisions["A"] == {"kind": "follow", "plan": 1}
    assert outcome.decisions["B"] == {"kind": "follow", "plan": 1}


def test_attack_trial_aborts_for_everyone():
    spec = small_spec("intercept_resend", seed=6)
    outcome = run_trial(spec, 0)
    assert outcome.tampering_detected and outcome.aborted
    assert outcome.checked > 0 and outcome.inconsistencies > 0
    assert outcome.list_length == 0
    for decision in outcome.decisions.values():
        assert decision == {"kind": "abort", "plan": None}
    assert outcome.broadcast and outcome.validity and outcome.dba_success


def test_hooks_are_compiled_once_per_trial(monkeypatch):
    calls = []
    original = adversaries_module.hooks_for_strategy

    def counting(strategy, rng=None):
        calls.append(strategy.kind)
        return original(strategy, rng)

    monkeypatch.setattr(adversaries_module, "hooks_for_strategy", counting)
    monkeypatch.setattr(distribution_module, "hooks_for_strategy", counting)
    run_trial(small_spec("reveal_liar", seed=1), 0)
    assert calls == [AdversaryKind.REVEAL_LIAR]


def test_budget_failure_records_the_attempts_made(monkeypatch):
    monkeypatch.setattr(distribution_module, "_BUDGET_FACTOR", 0.01)
    trial = run_trial(small_spec("honest"), 0)
    budget = 0.01 * math.ceil(distribution_module._valid_runs_needed(SMALL) * 12.0)
    assert trial.attempts == math.ceil(budget) > 0
    assert f"after {trial.attempts} attempts" in trial.failure
    assert not trial.dba_success


def test_budget_failure_counts_the_valid_runs_made(monkeypatch):
    monkeypatch.setattr(distribution_module, "_BUDGET_FACTOR", 0.01)
    report = run_scenario(small_spec("honest", trials=8))
    for trial in report.trials:
        made = int(re.match(r"(\d+) valid runs after", trial.failure).group(1))
        assert trial.valid_runs == made == sum(trial.combo_counts.values())
    assert report.aggregates["failures"] == 8
    assert report.aggregates["yield"] > 0.0


@pytest.mark.parametrize("scenario", ["honest", "false_report", "intercept_resend"])
def test_batch_runs_every_attempt_through_execute_and_sift(monkeypatch, scenario):
    """A wrapper on the two per-attempt functions sees the trial's own counts."""
    seen = {"attempts": 0, "valid": 0}
    execute, sift = distribution_module.execute_run, distribution_module.reveal_and_sift

    def counting_execute(*args, **kwargs):
        seen["attempts"] += 1
        return execute(*args, **kwargs)

    def counting_sift(*args, **kwargs):
        record = sift(*args, **kwargs)
        seen["valid"] += record.valid
        return record

    monkeypatch.setattr(distribution_module, "execute_run", counting_execute)
    monkeypatch.setattr(distribution_module, "reveal_and_sift", counting_sift)
    trial = run_trial(small_spec(scenario), 0)
    assert seen["attempts"] == trial.attempts > 0
    assert seen["valid"] == trial.valid_runs > 0


def test_budget_failure_is_recorded_not_raised(monkeypatch):
    monkeypatch.setattr(distribution_module, "_BUDGET_FACTOR", 0)
    report = run_scenario(small_spec("honest", trials=2))
    assert report.aggregates["failures"] == 2
    assert report.aggregates["dba_success_rate"] == 0.0
    for trial in report.trials:
        assert trial.failure is not None and not trial.dba_success


# --- aggregation ---------------------------------------------------------------------


# (L, f) of every stock scenario in the benchmark's mixed workload, which
# keeps every trial outcome it runs
MIX_SETTINGS = {
    "honest": (24, 0.1),
    "traitor_a": (24, 0.1),
    "traitor_b": (80, 0.1),
    "traitor_c": (80, 0.1),
    "false_report": (24, 0.5),
    "intercept_resend": (16, 0.5),
    "kraus_attack": (16, 0.5),
    "reveal_liar": (24, 0.5),
}


def test_kept_trial_outcomes_stay_small():
    """A kept TrialOutcome retains at most 1000 bytes on average.

    Equal decisions and cases are shared, combo keys are shared strings,
    and the outcome itself has slots.  Measured with tracemalloc over 100
    trials of each stock scenario, after one trial of each has filled the
    caches (batch sizes, tap tables, shared dicts).
    """
    specs = {
        name: SimulationSpec(
            scenario=Scenario(name),
            distribution=DistributionConfig(target_length=length, check_fraction=fraction),
            seed=1,
        )
        for name, (length, fraction) in MIX_SETTINGS.items()
    }
    for spec in specs.values():
        run_trial(spec, 10_000)
    for name, spec in specs.items():
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            kept = [run_trial(spec, r) for r in range(100)]
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained / len(kept) <= 1000, (name, retained / len(kept))


def test_equal_decisions_are_one_shared_dict():
    report = run_scenario(small_spec("honest", trials=4))
    assert all(t.decisions is report.trials[0].decisions for t in report.trials)
    assert all(t.cases is report.trials[0].cases for t in report.trials)
    aborted = run_scenario(small_spec("intercept_resend", trials=2)).trials
    assert aborted[0].decisions is aborted[1].decisions


def test_aggregates_are_sums_of_trials():
    report = run_scenario(small_spec("honest", trials=4, seed=7))
    agg = report.aggregates
    assert agg["trials"] == 4
    assert agg["attempts_total"] == sum(t.attempts for t in report.trials)
    assert agg["valid_total"] == sum(t.valid_runs for t in report.trials)
    assert agg["checked_total"] == sum(t.checked for t in report.trials)
    combo_total = sum(sum(t.combo_counts.values()) for t in report.trials)
    assert sum(agg["combo_counts"].values()) == combo_total == agg["valid_total"]
    assert agg["yield"] == agg["valid_total"] / agg["attempts_total"]
    assert agg["dba_success_total"] == 4


def test_merge_reports_is_associative_and_matches_full_run():
    spec = small_spec("honest", trials=9, seed=8)
    full = run_scenario(spec)
    parts = [run_scenario(spec, trial_ids=r) for r in (range(3), range(3, 6), range(6, 9))]
    merged_left = merge_reports([merge_reports(parts[:2]), parts[2]])
    merged_right = merge_reports([parts[0], merge_reports(parts[1:])])
    shuffled = merge_reports([parts[2], parts[0], parts[1]])
    for merged in (merged_left, merged_right, shuffled):
        assert merged.trials == full.trials
        assert merged.aggregates == full.aggregates


def test_merge_reports_rejects_mismatched_specs():
    a = run_scenario(small_spec("honest", trials=1, seed=1))
    b = run_scenario(small_spec("honest", trials=1, seed=2))
    with pytest.raises(ValueError):
        merge_reports([a, b])
    with pytest.raises(ValueError):
        merge_reports([])


# --- report serialisation ---------------------------------------------------------


def test_emit_report_json_is_byte_identical_and_versioned():
    spec = small_spec("honest", trials=2, seed=9)
    text_a = emit_report(run_scenario(spec), format="json")
    text_b = emit_report(run_scenario(spec), format="json")
    assert text_a == text_b
    payload = json.loads(text_a)
    assert payload["schema_version"] == SCHEMA_VERSION == 1
    assert payload["spec"]["scenario"] == "honest"
    assert len(payload["trials"]) == 2
    assert "timing_seconds" not in payload


def test_report_round_trip():
    spec = small_spec("reveal_liar", trials=2, seed=10)
    report = run_scenario(spec)
    text = emit_report(report, format="json", include_timing=True)
    assert parse_report(text) == report


def test_parse_report_rejects_unknown_schema():
    spec = small_spec("honest", trials=1)
    payload = json.loads(emit_report(run_scenario(spec), format="json"))
    payload["schema_version"] = 99
    with pytest.raises(ValueError):
        parse_report(json.dumps(payload))


def test_emit_report_summary_format():
    report = run_scenario(small_spec("honest", trials=2, seed=11))
    text = emit_report(report, format="summary")
    assert "yield" in text
    assert "scenario             honest" in text.splitlines()[0]
    with pytest.raises(ValueError):
        emit_report(report, format="xml")


# --- CLI ---------------------------------------------------------------------------


def test_parse_cli_builds_spec():
    spec = parse_cli(
        [
            "--scenario", "intercept_resend",
            "--trials", "3",
            "--length", "48",
            "--check-fraction", "0.3",
            "--efficiency", "0.8",
            "--seed", "17",
            "--basis", "fourier",
            "--location", "2",
        ]
    )
    assert spec.scenario is Scenario.INTERCEPT_RESEND
    assert spec.trials == 3
    assert spec.distribution.target_length == 48
    assert spec.distribution.check_fraction == 0.3
    assert spec.distribution.detector_efficiency == 0.8
    assert spec.seed == 17
    assert spec.adversary_params == {"basis": "fourier", "location": 2}


def test_parse_cli_omits_unset_adversary_params():
    spec = parse_cli(["--scenario", "honest"])
    assert spec.adversary_params == {}
    assert spec.trials == 1
    assert spec.distribution.target_length == 400


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["--scenario", "nonsense"],
        ["--scenario", "honest", "--trials", "0"],
        ["--scenario", "honest", "--check-fraction", "1.5"],
        ["--scenario", "honest", "--unknown-flag", "1"],
        ["--scenario", "custom"],  # custom needs a kind
        # a custom kind takes only its own parameters
        ["--scenario", "custom", "--kind", "none", "--rate", "0.5"],
        ["--scenario", "custom", "--kind", "traitor_b_forge_forward", "--traitor", "b"],
        ["--scenario", "custom", "--kind", "intercept_resend", "--channel", "dephasing"],
    ],
)
def test_parse_cli_usage_errors(argv):
    with pytest.raises(UsageError):
        parse_cli(argv)


def test_every_builtin_strategy_is_reachable_from_cli():
    reachable = {}
    for name in (
        "honest",
        "intercept_resend",
        "kraus_attack",
        "false_report",
        "reveal_liar",
        "traitor_a",
        "traitor_b",
        "traitor_c",
    ):
        spec = parse_cli(["--scenario", name])
        reachable[build_strategy(spec.scenario, spec.adversary_params).kind] = name
    assert set(reachable) == set(AdversaryKind)


def test_main_exit_codes(capsys, monkeypatch):
    code = main(
        ["--scenario", "honest", "--trials", "1", "--length", "24",
         "--check-fraction", "0.3", "--seed", "3"]
    )
    assert code == 0
    assert "yield" in capsys.readouterr().out

    assert main(["--scenario", "nope"]) == 1
    assert "usage error" in capsys.readouterr().err

    import qutrit_dba.harness as harness_module

    def boom(spec):
        raise RuntimeError("forced failure")

    monkeypatch.setattr(harness_module, "run_scenario", boom)
    assert main(["--scenario", "honest"]) == 2
    assert "forced failure" in capsys.readouterr().err


def test_main_custom_kind_takes_channel_by_name(capsys):
    code = main(
        ["--scenario", "custom", "--kind", "kraus_attack", "--channel", "dephasing",
         "--trials", "1", "--length", "16", "--check-fraction", "0.5"]
    )
    assert code == 0, capsys.readouterr().err


def test_main_json_output_parses(capsys):
    code = main(
        ["--scenario", "false_report", "--trials", "1", "--length", "24",
         "--check-fraction", "0.3", "--format", "json"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema_version"] == 1
    assert payload["aggregates"]["abort_total"] == 1


def test_package_runs_as_a_module_once():
    """``python -m qutrit_dba`` runs the CLI without re-executing a module."""
    src = str(Path(harness_module.__file__).resolve().parents[1])
    paths = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    done = subprocess.run(
        [sys.executable, "-m", "qutrit_dba", "--help"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "RuntimeWarning" not in done.stderr
    assert "--scenario" in done.stdout

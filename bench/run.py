"""Closed-loop benchmark of the qutrit-dba simulator.

    python3 bench/run.py --workload honest_L400 --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout: the package is imported from
``src/`` next to this directory, never from an installed copy.  One
thread runs whole rounds of operations, each starting when the previous
one has finished, for ``--seconds`` seconds (and, untraced, for at least
``MIN_OPS`` operations, so the 90th percentile has ten samples beyond
it).  The program receives only inputs made here from ``--seed``.

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` runs every
operation twice, untraced and then with each traced function wrapped
(see tracer.py), checks that both give identical outputs, and reports
the per-layer metrics.  Either way the outputs are checked against the
oracles in checks.py.  The last line of standard output is one JSON
object; the same result, with machine details, goes to bench/out/.
"""

import time

T0 = time.perf_counter()  # setup_s runs from here, before `import qutrit_dba`

import argparse
import functools
import json
import os
import platform
import resource
import sys
import traceback
from pathlib import Path

import numpy as np

import checks
import tracer as tracer_mod

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

MIN_OPS = 100
WORKLOADS = ("honest_L400", "scenario_mix", "agreement_long")

# (L, check fraction) of every stock scenario: the Tier-1 acceptance
# settings, except that the four scenarios whose lists reach the agreement
# phase check 10% instead of 30-50%.  At f = 0.5 a batch falls short of L
# survivors in about 2 of 10^4 trials (at f = 0.1, 10^-7), and a failure
# that depends on the seed would make the failed count differ between runs.
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
# the `simulate` CLI defaults: L = 400, f = 0.2, eta = 1
HONEST_SETTINGS = {"honest": (400, 0.2)}

AGREEMENT_LENGTH = 40_000
AGREEMENT_POOL = 4
AGREEMENT_CASES = ("honest", "traitor_a", "traitor_b", "traitor_c")

FAILED = object()

# Host-speed reference.  On a shared host the speed one process gets can
# switch between states for seconds to minutes at a time; on a 2-vCPU
# virtual machine this moved the raw timings of whole 50 s runs by up to
# 40%.  So an untraced run times this fixed loop after every round and
# scales that round's timings by REFERENCE_S / (the loop's time): they
# read as at the host speed where the loop takes REFERENCE_S.  The loop
# calls no program code and allocates almost nothing the garbage
# collector tracks, so the program cannot change its cost.  Unscaled
# timings go to the result file beside the scaled ones.
REFERENCE_S = 7e-3
_REFERENCE_RNG = np.random.default_rng(0)


def reference_time():
    rng, acc, slots = _REFERENCE_RNG, 0, {}
    t0 = time.perf_counter()
    for i in range(1000):
        bits = rng.integers(0, 2, size=3)
        acc += int(bits[0]) + int(rng.integers(0, 3))
        slots[i & 31] = acc % 3 + i
    return time.perf_counter() - t0


def import_package():
    """Import qutrit_dba from this checkout's src/, or exit non-zero."""
    if not (SRC / "qutrit_dba" / "__init__.py").is_file():
        sys.exit(f"bench: no qutrit_dba package under {SRC}")
    sys.path.insert(0, str(SRC))
    import qutrit_dba

    if Path(qutrit_dba.__file__).resolve().parent != SRC / "qutrit_dba":
        sys.exit(f"bench: imported qutrit_dba from {qutrit_dba.__file__}, not {SRC}")
    return qutrit_dba


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class TrialWorkload:
    """Whole protocol trials: one ``harness.run_trial`` per operation.

    A round runs trial ``r`` of every scenario in ``settings``, so each
    scenario gets the same number of trials.
    """

    def __init__(self, qd, seed, settings):
        self.qd = qd
        self.fractions = {name: f for name, (_, f) in settings.items()}
        self.specs = {
            name: qd.SimulationSpec(
                scenario=qd.Scenario(name),
                distribution=qd.DistributionConfig(target_length=length, check_fraction=f),
                seed=seed,
            )
            for name, (length, f) in settings.items()
        }

    def _trial(self, spec, r):
        # looked up at call time, so a traced run reaches the wrapper
        return self.qd.harness.run_trial(spec, r)

    def ops(self, r):
        return [(name, functools.partial(self._trial, spec, r)) for name, spec in self.specs.items()]

    def failed(self, out):
        return out.failure is not None

    def keep(self, label, r, out):
        return label, out

    def problems(self, kept):
        groups = {name: [] for name in self.specs}
        for label, outcome in kept:
            groups[label].append(outcome)
        return checks.check_trials(groups, self.fractions)

    def aggregates(self, kept):
        """The program's own attempts and valid-run totals over ``kept``."""
        totals = {"attempts_total": 0, "valid_total": 0}
        for name, spec in self.specs.items():
            trials = tuple(t for label, t in kept if label == name)
            if not trials:
                continue
            report = self.qd.merge_reports([self.qd.ScenarioReport(spec, trials, {})])
            for key in totals:
                totals[key] += report.aggregates[key]
        return totals

    def surplus(self, kept):
        # valid runs neither sacrificed to the check nor kept in the list
        return sum(t.valid_runs - t.checked - t.list_length for _, t in kept)


class AgreementWorkload:
    """The agreement phase alone, on long seeded lists.

    A round runs the honest commander, the conflicting commander and both
    forging lieutenants, each under both plans, on one list of the pool.
    """

    def __init__(self, qd, seed):
        self.qd = qd
        self.seed = seed
        rng = np.random.default_rng([seed, 0])
        combos = np.array([[int(v) for v in c] for c in checks.VALID_COMBOS])
        self.lists, self.counts = [], []
        for _ in range(AGREEMENT_POOL):
            picked = combos[rng.integers(0, len(combos), size=AGREEMENT_LENGTH)]
            la, lb, lc = (tuple(picked[:, k].tolist()) for k in range(3))
            self.lists.append(qd.CorrelatedLists(la, lb, lc))
            self.counts.append(np.bincount(picked[:, 0], minlength=3))
        self.strategies = {
            "honest": qd.honest(),
            "traitor_a": qd.traitor_a_conflicting(),
            "traitor_b": qd.traitor_b_forge_forward(),
            "traitor_c": qd.traitor_c_forge_forward(),
        }

    def _agree(self, lists, plan, strategy, key):
        agreement = self.qd.agreement
        rng = np.random.default_rng(key)
        transcript = agreement.run_agreement(lists, self.qd.Plan(plan), strategy, rng)
        return transcript, agreement.evaluate_conditions(transcript)

    def ops(self, r):
        lists = self.lists[r % AGREEMENT_POOL]
        return [
            (f"{case}/{plan}",
             functools.partial(self._agree, lists, plan, self.strategies[case],
                               [self.seed, 1, r, 2 * k + plan]))
            for k, case in enumerate(AGREEMENT_CASES)
            for plan in (0, 1)
        ]

    def failed(self, out):
        return False

    def keep(self, label, r, out):
        # transcripts of long lists are large: check now, keep the verdict
        case, plan = label.split("/")
        transcript, conditions = out
        return checks.check_agreement(
            case, int(plan), transcript, conditions, self.counts[r % AGREEMENT_POOL]
        )

    def problems(self, kept):
        return [p for found in kept for p in found]

    def aggregates(self, kept):
        return {"attempts_total": 0, "valid_total": 0}

    def surplus(self, kept):
        return 0


def make_workload(qd, name, seed):
    if name == "honest_L400":
        return TrialWorkload(qd, seed, HONEST_SETTINGS)
    if name == "scenario_mix":
        return TrialWorkload(qd, seed, MIX_SETTINGS)
    return AgreementWorkload(qd, seed)


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------


def timed(call):
    t0 = time.perf_counter()
    try:
        out = call()
    except Exception:  # one failed operation is counted, the run goes on
        traceback.print_exc(file=sys.stderr)
        out = FAILED
    return out, time.perf_counter() - t0


class Measurement:
    def __init__(self):
        self.labels, self.latency, self.kept = [], [], []
        self.failed = 0
        self.traced_latency = []
        self.mismatches = 0
        self.start = 0.0
        # untraced runs, per round: wall time, reference time, operations
        self.round_wall, self.reference, self.round_ops = [], [], []


def measure(workload, seconds, min_ops, tracer=None):
    """Run whole rounds from round 1 until both limits are met."""
    m = Measurement()
    m.start = time.perf_counter()
    r = 1
    while True:
        round_start = time.perf_counter()
        first = len(m.latency)
        for label, call in workload.ops(r):
            out, dt = timed(call)
            m.labels.append(label)
            m.latency.append(dt)
            if tracer is not None:
                op_id = len(m.latency) - 1
                traced, tdt = timed(functools.partial(tracer.run_op, op_id, call))
                m.traced_latency.append(tdt)
                m.mismatches += traced != out
                m.failed += traced is FAILED or workload.failed(traced)
            if out is FAILED or workload.failed(out):
                m.failed += 1
            else:
                m.kept.append(workload.keep(label, r, out))
        if tracer is None:
            m.round_wall.append(time.perf_counter() - round_start)
            m.reference.append(reference_time())
            m.round_ops.append(len(m.latency) - first)
        r += 1
        if time.perf_counter() - m.start >= seconds and len(m.latency) >= min_ops:
            break
    return m


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def timings(latency, busy):
    return {
        "ops_per_s": (len(latency) / busy, "op/s"),
        "op_ms_p50": (float(np.percentile(latency, 50)) * 1e3, "ms"),
        "op_ms_p90": (float(np.percentile(latency, 90)) * 1e3, "ms"),
    }


def end_to_end(m):
    """Speed-scaled end-to-end metrics, and the same timings unscaled."""
    ref = np.array(m.reference)
    # a round's host speed: the median reference time of the round and two
    # on either side, which evens out the jitter of single samples
    smooth = np.array([np.median(ref[max(0, i - 2):i + 3]) for i in range(len(ref))])
    scale = REFERENCE_S / smooth
    latency = np.array(m.latency) * np.repeat(scale, m.round_ops)
    metrics = timings(latency, float(np.dot(m.round_wall, scale)))
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    metrics["setup_s"] = (m.start - T0, "s")
    raw = timings(np.array(m.latency), sum(m.round_wall))
    raw["reference_ms_p50"] = (float(np.median(m.reference)) * 1e3, "ms")
    return metrics, raw


def per_layer(m, tracer, workload):
    t = tracer.totals()
    ops = len(m.traced_latency)

    def calls(*names):
        return sum(t[n][0] for n in names)

    def incl(name):
        return t[name][1]

    def own(*names):
        return sum(t[n][2] for n in names)

    def ratio(a, b):
        return a / b if b else 0.0

    attempts = calls("distribution.execute_run")
    metrics = {
        "harness.run_trial_self_ms": (own("harness.run_trial") / ops * 1e3, "ms"),
        "strategies.build_us": (incl("harness.build_strategy") / ops * 1e6, "us"),
        "adversaries.hooks_calls": (calls("adversaries.hooks_for_strategy") / ops, "calls/op"),
        "adversaries.hooks_us": (incl("adversaries.hooks_for_strategy") / ops * 1e6, "us"),
        "adversaries.forge_ms": (incl("adversaries.forged_forward") / ops * 1e3, "ms"),
        "qutrit_core.sample_calls_per_attempt": (
            ratio(calls("qutrit_core.sample_outcome"), attempts), "calls/attempt"),
        "qutrit_core.state_calls_per_attempt": (
            ratio(calls(*tracer_mod.STATE_CALLS), attempts), "calls/attempt"),
        "qutrit_core.self_ms": (own(*tracer_mod.QUTRIT_CORE) / ops * 1e3, "ms"),
        "distribution.batch_attempts_per_s": (
            ratio(attempts, incl("distribution.run_batch")), "attempt/s"),
        "distribution.batch_ms": (incl("distribution.run_batch") / ops * 1e3, "ms"),
        "distribution.batch_self_ms": (own("distribution.run_batch") / ops * 1e3, "ms"),
        "distribution.execute_us_per_attempt": (
            ratio(own("distribution.execute_run"), attempts) * 1e6, "us"),
        "distribution.sift_us_per_attempt": (
            ratio(own("distribution.reveal_and_sift"), attempts) * 1e6, "us"),
        "distribution.attempts_per_op": (attempts / ops, "attempts/op"),
        "distribution.surplus_valid_per_op": (workload.surplus(m.kept) / ops, "runs/op"),
        "distribution.cross_check_us": (incl("distribution.cross_check") / ops * 1e6, "us"),
        "distribution.assemble_us": (incl("distribution.assemble_lists") / ops * 1e6, "us"),
        "agreement.run_ms": (incl("agreement.run_agreement") / ops * 1e3, "ms"),
        "agreement.verify_ns_per_position": (
            ratio(incl("agreement.verify_against_list"), tracer.counters["positions"]) * 1e9,
            "ns"),
    }
    for name in MIX_SETTINGS:
        spent = [dt for label, dt in zip(m.labels, m.latency) if label == name]
        metrics[f"scenario.{name}.ms_per_op"] = (ratio(sum(spent), len(spent)) * 1e3, "ms")
    metrics["bench.trace_overhead"] = (sum(m.traced_latency) / sum(m.latency), "ratio")
    counted = {"attempts_total": attempts, "valid_total": tracer.counters["valid_total"]}
    return metrics, counted


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None):
    args = parse_args(argv)
    qd = import_package()
    workload = make_workload(qd, args.workload, args.seed)
    problems, warm = [], []
    for label, call in workload.ops(0):  # warm-up round, untimed
        out, _ = timed(call)
        if out is FAILED or workload.failed(out):
            problems.append(f"warm-up operation {label} failed")
        else:
            warm.append(workload.keep(label, 0, out))

    if args.trace:
        tracer = tracer_mod.Tracer()
        m = measure(workload, args.seconds, 1, tracer)
        metrics, counted = per_layer(m, tracer, workload)
        problems += checks.check_traced(m.mismatches, len(m.latency))
        problems += checks.check_counted(counted, workload.aggregates(m.kept))
        attempted = len(m.latency) + len(m.traced_latency)
    else:
        m = measure(workload, args.seconds, MIN_OPS)
        metrics, raw = end_to_end(m)
        attempted = len(m.latency)
    problems += workload.problems(warm + m.kept)

    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.6f} {unit}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": m.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    details = dict(
        result,
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        operations=len(m.latency),
        problems=problems,
        machine={
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
    )
    if args.trace:
        details["traced_bindings"] = tracer.bindings
        tracer.save(OUT / f"{args.workload}-spans.npz")
    else:
        details["unscaled"] = {name: {"value": v, "unit": u} for name, (v, u) in raw.items()}
    (OUT / f"{stem}.json").write_text(json.dumps(details, indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Per-layer tracing from outside the program.

The tracer replaces each public function listed in ``TRACED`` with a
timing wrapper, under every name the package binds it to (``from x import
f`` makes a second binding that a patch of ``x.f`` alone would miss).
Each call records a span: name, start, end, the span that caused it and
the operation it belongs to.  Spans live in flat typed arrays, so a
traced run of millions of spans stays small in memory, and are written
out once at the end.  A span's self time is its length minus the time
its child spans cover.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

# (module, function) pairs wrapped in a traced run
TRACED = (
    ("harness", "run_trial"),
    ("harness", "build_strategy"),
    ("adversaries", "hooks_for_strategy"),
    ("adversaries", "forged_forward"),
    ("distribution", "run_batch"),
    ("distribution", "execute_run"),
    ("distribution", "reveal_and_sift"),
    ("distribution", "cross_check"),
    ("distribution", "assemble_lists"),
    ("agreement", "run_agreement"),
    ("agreement", "evaluate_conditions"),
    ("agreement", "verify_against_list"),
    ("qutrit_core", "sample_outcome"),
    ("qutrit_core", "apply_operator"),
    ("qutrit_core", "apply_operator_mixed"),
    ("qutrit_core", "apply_channel"),
    ("qutrit_core", "outcome_probabilities"),
)

QUTRIT_CORE = tuple(f"qutrit_core.{f}" for m, f in TRACED if m == "qutrit_core")
STATE_CALLS = tuple(n for n in QUTRIT_CORE if n != "qutrit_core.sample_outcome")

PACKAGE = "qutrit_dba"

# root span of every benchmark operation
OP = "bench.op"


def _count_valid(counters, args, kwargs, record):
    counters["valid_total"] += bool(record.valid)


def _count_checked(counters, args, kwargs, report):
    counters["checked"] += report.checked


def _count_positions(counters, args, kwargs, verdict):
    msg = args[0] if args else kwargs["msg"]
    counters["positions"] += len(msg.positions)


# payload counts taken from a wrapped call's arguments or result
_PAYLOAD = {
    "distribution.reveal_and_sift": _count_valid,
    "distribution.cross_check": _count_checked,
    "agreement.verify_against_list": _count_positions,
}


class Tracer:
    """Span recorder plus the patches that feed it.

    ``install`` and ``uninstall`` swap the wrappers in and out; they are
    cheap, so a run can trace every other call of the same operation.
    """

    def __init__(self) -> None:
        self.names: List[str] = [OP]
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.child = array("d")
        self.parent = array("i")
        self.op = array("I")
        self.op_id = 0
        self.counters: Dict[str, int] = {"valid_total": 0, "checked": 0, "positions": 0}
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, Callable, Callable]] = []
        modules = [
            m for key, m in sorted(sys.modules.items())
            if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        for module_name, func_name in TRACED:
            label = f"{module_name}.{func_name}"
            original = getattr(sys.modules[f"{PACKAGE}.{module_name}"], func_name)
            wrapper = self._wrap(label, original, _PAYLOAD.get(label))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original, wrapper))

    @property
    def bindings(self) -> List[str]:
        """Every patched name, as module.attribute."""
        return [f"{m.__name__}.{attr}" for m, attr, _, _ in self._patches]

    def install(self) -> None:
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    def _wrap(self, label: str, fn: Callable, payload: Optional[Callable]) -> Callable:
        key = len(self.names)
        self.names.append(label)
        return functools.update_wrapper(self._span(key, fn, payload), fn)

    def _span(self, key: int, fn: Callable, payload: Optional[Callable] = None) -> Callable:
        stack, counters = self._stack, self.counters
        name, start, end, child, parent, op = (
            self.name, self.start, self.end, self.child, self.parent, self.op
        )

        def traced(*args, **kwargs):
            i = len(start)
            name.append(key)
            parent.append(stack[-1] if stack else -1)
            op.append(self.op_id)
            child.append(0.0)
            end.append(0.0)
            stack.append(i)
            t0 = perf_counter()
            start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                end[i] = t1
                if stack:
                    child[stack[-1]] += t1 - t0
            if payload is not None:
                payload(counters, args, kwargs, result)
            return result

        return traced

    def run_op(self, op_id: int, call: Callable):
        """Run one benchmark operation traced, as the root of its spans."""
        self.op_id = op_id
        self.install()
        try:
            return self._span(0, call)()
        finally:
            self.uninstall()

    # -- summaries ---------------------------------------------------------

    def totals(self) -> Dict[str, Tuple[int, float, float]]:
        """Per span name: (calls, inclusive seconds, self seconds)."""
        key = np.array(self.name, dtype=np.intp)
        length = np.array(self.end) - np.array(self.start)
        width = len(self.names)
        calls = np.bincount(key, minlength=width)
        incl = np.bincount(key, weights=length, minlength=width)
        own = np.bincount(key, weights=length - np.array(self.child), minlength=width)
        return {
            label: (int(calls[k]), float(incl[k]), float(own[k]))
            for k, label in enumerate(self.names)
        }

    def save(self, path) -> None:
        """Write every span to a .npz file (times relative to the first)."""
        start = np.array(self.start)
        origin = start[0] if len(start) else 0.0
        np.savez(
            path,
            names=np.array(self.names),
            name=np.array(self.name, dtype=np.uint16),
            start=start - origin,
            end=np.array(self.end) - origin,
            child=np.array(self.child),
            parent=np.array(self.parent, dtype=np.int32),
            op=np.array(self.op, dtype=np.uint32),
        )

"""Per-layer tracing from outside the program.

`install` replaces each public function of a qsilab module with a wrapper
that records a span (function, parent span, op id, start, end, error) in
memory. A function is replaced in every qsilab module namespace that binds
it, so calls through re-exports are traced too; a dataclass's
`__post_init__` is traced as `<Class>.init`. Spans are summarised per
function as calls, total time, self time (total minus the time its child
spans cover) and errors, plus a few work counts taken from arguments and
results.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from typing import Any, Callable

#: Traced attributes of each qsilab module; "Class.method" names a method.
TARGETS: dict[str, tuple[str, ...]] = {
    "cli": ("main",),
    "permgroup": ("perm_table", "sign_table", "Partition.__post_init__"),
    "identity_tests": ("run_circuit", "equal_prob_formula", "equal_prob_rational",
                       "control_group"),
    "qmath": ("dft", "measure_first_register", "JointState.__post_init__",
              "PureState.__post_init__"),
    "instances": ("load_instance", "build_instance", "verify_promise",
                  "QsiInstance.__post_init__", "QsiInstance.gram"),
    "protocols": ("mc_run", "srs_sample", "rcir_sample", "wilson_interval", "srs_exact",
                  "rcir_exact", "rcir_exact_for_instance"),
    "bounds": ("ps_lower_bound", "eq2_bound", "q_value", "two_block_soundness"),
}

_GROUP_ORDER = {"swap": lambda n: 2, "circle": lambda n: n,
                "permutation": math.factorial, "alternation": lambda n: math.factorial(n) // 2}


def _run_circuit_amps(args, kwargs, result) -> tuple[str, float]:
    # computed from the arguments: |G| * d^n amplitudes in the joint state
    kind, inst = args[0], args[1]
    return "identity_tests.run_circuit.amps_computed", _GROUP_ORDER[kind.value](inst.n) * inst.dim ** inst.n


def _post_states(args, kwargs, result) -> tuple[str, float]:
    return "qmath.measure_first_register.post_states", len(result)


def _mc_trials(args, kwargs, result) -> tuple[str, float]:
    return "protocols.mc_run.trials", result.trials


def _srs_rounds(args, kwargs, result) -> tuple[str, float]:
    return "protocols.srs_sample.rounds", result.rounds_executed


COUNTERS: dict[str, Callable[..., tuple[str, float]]] = {
    "identity_tests.run_circuit": _run_circuit_amps,
    "qmath.measure_first_register": _post_states,
    "protocols.mc_run": _mc_trials,
    "protocols.srs_sample": _srs_rounds,
}

COUNTER_NAMES = (
    "identity_tests.run_circuit.amps_computed",
    "qmath.measure_first_register.post_states",
    "qmath.measure_first_register.useful_ratio",
    "protocols.mc_run.trials",
    "protocols.srs_sample.rounds",
)

SPAN_FIELDS = ("fn", "parent", "op", "start_ns", "end_ns", "error")


def span_names() -> list[str]:
    """Traced function names, `<module>.<function>`, in a fixed order."""
    return [f"{mod}.{attr.replace('.__post_init__', '.init')}"
            for mod, attrs in TARGETS.items() for attr in attrs]


class Recorder:
    """In-memory span store; one per traced process."""

    def __init__(self) -> None:
        self.names = span_names()
        self.spans: list[list[Any]] = []
        self.stack: list[int] = []
        self.op = -1
        self.counts: dict[str, float] = {}

    def wrap(self, index: int, fn: Callable) -> Callable:
        name = self.names[index]
        count = COUNTERS.get(name)
        spans, stack, counts = self.spans, self.stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            span = [index, stack[-1] if stack else -1, self.op, time.perf_counter_ns(), 0, False]
            spans.append(span)
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[4] = time.perf_counter_ns()
                stack.pop()
            if count is not None:
                key, value = count(args, kwargs, result)
                counts[key] = counts.get(key, 0) + value
            return result

        return traced

    def summary(self) -> dict[str, float]:
        """calls / total_ms / self_ms / errors per function, plus the counts."""
        n = len(self.names)
        calls, errors = [0] * n, [0] * n
        total, child = [0] * n, [0] * len(self.spans)
        for fn, parent, _, start, end, error in self.spans:
            dur = end - start
            calls[fn] += 1
            errors[fn] += error
            total[fn] += dur
            if parent >= 0:
                child[parent] += dur
        self_ns = [0] * n
        for sid, (fn, _, _, start, end, _) in enumerate(self.spans):
            self_ns[fn] += end - start - child[sid]
        out: dict[str, float] = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[i]
            out[f"{name}.total_ms"] = total[i] / 1e6
            out[f"{name}.self_ms"] = self_ns[i] / 1e6
            out[f"{name}.errors"] = errors[i]
        for key in COUNTER_NAMES:
            out[key] = self.counts.get(key, 0)
        circuits = out["identity_tests.run_circuit.calls"]
        post = out["qmath.measure_first_register.post_states"]
        out["qmath.measure_first_register.useful_ratio"] = circuits / post if post else 0.0
        return out


def install() -> Recorder:
    """Wrap every target found in the imported qsilab; missing ones are skipped."""
    rec = Recorder()
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "qsilab" or name.startswith("qsilab."))]
    targets = [(mod, attr) for mod, attrs in TARGETS.items() for attr in attrs]
    for i, (mod_name, attr) in enumerate(targets):
        mod = sys.modules.get(f"qsilab.{mod_name}")
        owner_name, _, fn_name = attr.rpartition(".")
        owner = getattr(mod, owner_name, None) if owner_name else mod
        fn = getattr(owner, fn_name, None)
        if fn is None:
            continue
        traced = rec.wrap(i, fn)
        if owner_name:
            setattr(owner, fn_name, traced)
            continue
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is fn:
                    setattr(m, key, traced)
    return rec

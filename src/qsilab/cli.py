"""Command-line front end.

Subcommands: `test` (one identity test on an instance file), `protocol srs|rcir`
(exact or Monte Carlo protocol runs), `sweep TARGET` (CSV tables over parameter
grids), `bounds KIND` (one bound evaluation), and `selftest` (the criteria
suite). Each leaf takes only the flags its run reads and refuses the rest.

Output is CSV to --out or stdout, each row ending in `run_id` and `seed`;
--json prints the run record instead, and --out also writes it to
`<out>.record.json`. Only a Monte Carlo protocol run draws: it takes --seed,
or draws and records one, and replays from it byte for byte. Every other run
records no seed and prints the same bytes for the same command. Exit codes: 0
ok, 1 a selftest criterion failed, 2 bad input or a non-real value
(ArithmeticError), 3 size cap exceeded or out of memory, 4 output I/O failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import json
import os
import secrets
import sys
import time
from dataclasses import asdict, dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any

import numpy as np

from .bounds import (
    basel_asymptote,
    eq2_bound,
    q_case,
    q_value,
    two_block_soundness,
    two_sided_gap_check,
)
from .identity_tests import TestKind, equal_prob_formula, equal_prob_rational, run_circuit
from .instances import QsiInstance, load_instance
from .limits import RCIR_EXACT_MAX_N, SRS_EXACT_MAX_M, CapExceededError
from .protocols import mc_run, promise_labels, rcir_batch, rcir_exact, srs_batch, srs_exact


class InputError(ValueError):
    """Malformed input file or inconsistent arguments (exit code 2)."""


@dataclass
class RunRecord:
    command: str
    params: dict[str, Any]
    outputs: dict[str, Any]
    seed: int | None
    wall_time_ms: int
    run_id: str


def _run_id(command: str, params: dict[str, Any], seed: int | None) -> str:
    payload = json.dumps([command, params, seed], sort_keys=True, default=str)
    return hashlib.sha256(payload.encode()).hexdigest()[:12]


def _rat(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _cell(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if value is None:
        return ""
    return str(value)


def _write_csv(stream, rows: list[dict[str, Any]], record: RunRecord) -> None:
    """The first row's columns, then run_id and seed, one line per row."""
    columns = list(rows[0])
    tail = [record.run_id, _cell(record.seed)]
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(columns + ["run_id", "seed"])
    for row in rows:
        writer.writerow([_cell(row[col]) for col in columns] + tail)


def _load(args) -> QsiInstance:
    """Load --instance, and note a digest of its states in args for the run id."""
    try:
        inst = load_instance(args.instance)
    except CapExceededError:
        raise
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot load instance {args.instance}: {exc}") from exc
    args.states_digest = [inst.n, inst.dim, hashlib.sha256(inst.states.tobytes()).hexdigest()]
    return inst


# --- subcommand runners ------------------------------------------------------
# Each returns its rows; every row holds all its columns, in order (None prints empty).

def _cmd_test(args) -> list[dict]:
    kind = TestKind(args.kind)
    inst = _load(args)
    circuit = run_circuit(kind, inst).p_equal if args.mode != "formula" else None
    formula = equal_prob_formula(kind, inst) if args.mode != "circuit" else None
    return [{
        "kind": kind.value,
        "mode": args.mode,
        "n": inst.n,
        "dim": inst.dim,
        "p_circuit": circuit,
        "p_formula": formula,
        "p_rational": _rat(equal_prob_rational(kind, inst)) if inst.labels is not None else None,
        "abs_diff": abs(circuit - formula) if args.mode == "both" else None,
    }]


def _check_protocol_args(args) -> None:
    """Reject out-of-range or conflicting flags before any instance is loaded."""
    if args.seed is not None and args.seed < 0:
        raise InputError(f"--seed must be non-negative, got {args.seed}")
    if not args.exact and args.trials < 1:
        raise InputError(f"--trials must be at least 1, got {args.trials}")
    if not args.exact and args.policy == "canonical":
        raise InputError("--policy canonical needs --exact: Monte Carlo re-chooses pairs uniformly")
    if args.protocol == "srs" and args.m < 1:
        raise InputError(f"--m must be at least 1, got {args.m}")
    if args.instance is not None:
        given = " ".join(f"--{flag}" for flag in "nr" if getattr(args, flag) is not None)
        if given:
            raise InputError(f"{given} cannot be given with --instance, which fixes the states")
        return
    if args.n is None or args.r is None:
        raise InputError("protocol rcir needs --instance, or --n and --r")
    if not 1 <= args.r <= args.n - 1:
        raise InputError(f"need 1 <= --r <= --n - 1, got --n {args.n} --r {args.r}")
    if args.n > RCIR_EXACT_MAX_N:
        raise CapExceededError(f"--n {args.n}: randomized circle capped at n={RCIR_EXACT_MAX_N}")


def _cmd_protocol(args) -> list[dict]:
    _check_protocol_args(args)
    inst = _load(args) if args.instance is not None else None
    labels = promise_labels(inst) if inst is not None else (0,) * args.r + (1,) * (args.n - args.r)
    row: dict[str, Any] = {
        "protocol": args.protocol,
        "n": len(labels),
        "r": args.r,
        "m": args.m,
        "policy": args.policy,
        "mode": "exact" if args.exact else "mc",
    }
    if args.exact:
        sizes = np.bincount(labels).tolist()
        value = srs_exact(sizes, args.m) if args.protocol == "srs" else rcir_exact(sizes)
        row.update(value_rational=_rat(value), value_float=float(value), trials=None,
                   successes=None, p_hat=None, ci_lo=None, ci_hi=None)
    else:
        sample = (functools.partial(srs_batch, inst, args.m) if args.protocol == "srs"
                  else functools.partial(rcir_batch, labels))
        if args.seed is None:  # drawn into args, so that the record holds it
            args.seed = secrets.randbits(32)
        est = mc_run(sample, args.trials, args.seed)
        row.update(value_rational=None, value_float=None, trials=est.trials,
                   successes=est.successes, p_hat=est.p_hat, ci_lo=est.ci95[0],
                   ci_hi=est.ci95[1])
    return [row]


def _sweep_perm_soundness(args) -> list[dict]:
    """two-block soundness 1/C(n, l) for every l, n in --n-min..--n-max"""
    rows = []
    for n in range(args.n_min, args.n_max + 1):
        for l in range(1, n):
            value = two_block_soundness(n, l)
            rows.append({
                "n": n,
                "l": l,
                "soundness_rational": _rat(value),
                "soundness_float": float(value),
                "one_over_n_float": 1.0 / n,
            })
    return rows


def _sweep_rcir_vs_bound(args) -> list[dict]:
    """exact randomized circle value on two blocks against the eq2 bound, r <= n/2"""
    rows = []
    for n in range(args.n_min, args.n_max + 1):
        for r in range(1, n // 2 + 1):
            exact = rcir_exact([r, n - r])
            bound = eq2_bound(n, r)
            rows.append({
                "n": n,
                "r": r,
                "exact_rational": _rat(exact),
                "exact_float": float(exact),
                "bound_rational": _rat(bound),
                "bound_float": float(bound),
                "loose_float": 1.7 / n,
                "within_bound": exact <= bound,
            })
    return rows


def _sweep_srs_vs_m(args) -> list[dict]:
    """exact sequential swap on two and three blocks against 1/3 + 4^(1-m), m <= --m-max"""
    rows = []
    for m in range(1, args.m_max + 1):
        ti, ao = srs_exact([2, 1], m), srs_exact([1, 1, 1], m)
        bound = Fraction(1, 3) + Fraction(1, 4 ** (m - 1))
        rows.append({
            "m": m,
            "two_identical_rational": _rat(ti),
            "two_identical_float": float(ti),
            "all_orthogonal_rational": _rat(ao),
            "all_orthogonal_float": float(ao),
            "bound_rational": _rat(bound),
            "bound_float": float(bound),
            "within_bound": ti <= bound and ao <= bound,
        })
    return rows


def _sweep_qbounds(args) -> list[dict]:
    """q(n, r, s) against its case bound for every common divisor s >= 2 of n and r"""
    rows = []
    for n in range(args.n_min, args.n_max + 1):
        for r in range(1, n // 2 + 1):
            for s in range(2, r + 1):
                if n % s or r % s:
                    continue
                value = q_value(n, r, s)
                case, case_bound = q_case(n, r, s)
                rows.append({
                    "n": n,
                    "r": r,
                    "s": s,
                    "q_rational": _rat(value),
                    "q_float": float(value),
                    "case": case,
                    "case_bound_rational": _rat(case_bound),
                    "case_bound_float": float(case_bound),
                    "holds": value <= case_bound,
                })
    return rows


_SWEEPS = {
    "perm-soundness": _sweep_perm_soundness,
    "rcir-vs-bound": _sweep_rcir_vs_bound,
    "srs-vs-m": _sweep_srs_vs_m,
    "qbounds": _sweep_qbounds,
}


def _cmd_sweep(args) -> list[dict]:
    # every sweep cap, checked on the last point of a non-empty grid before any row
    if args.target == "srs-vs-m":
        flags, var, top, cap = f"--m-max {args.m_max}", "m", args.m_max, SRS_EXACT_MAX_M
    else:
        flags = f"--n-min {args.n_min} --n-max {args.n_max}"
        var, top, cap = "n", args.n_max if args.n_min <= args.n_max else 0, RCIR_EXACT_MAX_N
    if top > cap:
        raise CapExceededError(f"--{var}-max {top}: sweep {args.target} capped at {var}={cap}")
    rows = _SWEEPS[args.target](args)
    if not rows:
        raise InputError(f"sweep {args.target} has no rows for {flags}")
    return rows


def _cmd_bounds(args) -> list[dict]:
    which, n = args.which, args.n
    if which == "two-block":
        value = two_block_soundness(n, args.l)
        return [{"bound": which, "n": n, "l": args.l, "value_rational": _rat(value),
                 "value_float": float(value), "one_over_n_float": 1.0 / n}]
    if which == "q":
        value = q_value(n, args.r, args.s)
        return [{"bound": which, "n": n, "r": args.r, "s": args.s, "value_rational": _rat(value),
                 "value_float": float(value), "case": q_case(n, args.r, args.s)[0]}]
    if which == "eq2":
        value = eq2_bound(n, args.r)
        return [{"bound": which, "n": n, "r": args.r, "value_rational": _rat(value),
                 "value_float": float(value)}]
    if which == "basel":
        return [{"bound": which, "n": n, "pi2_over_6n": basel_asymptote(n),
                 "loose_1_7_over_n": 1.7 / n}]
    return [{"bound": which, **asdict(two_sided_gap_check())}]  # gap


# --- wiring ------------------------------------------------------------------

# Built on first use and kept: every call of main in one process reuses it.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsilab",
        description="identity-testing lab: circuits, closed forms, protocols, bounds",
    )
    # a flag a leaf lacks reads None: main reads every run's --seed and --instance,
    # and the protocol runner reads both its leaves' flags
    parser.set_defaults(seed=None, instance=None, n=None, r=None, m=None, policy=None)
    sub = parser.add_subparsers(dest="command", required=True)
    out = argparse.ArgumentParser(add_help=False)  # the flags every leaf takes
    out.add_argument("--out", help="write CSV here, and the run record to OUT.record.json")
    out.add_argument("--json", action="store_true", help="print the run record as JSON")

    def leaves(command: str, help: str, dest: str):
        return sub.add_parser(command, help=help).add_subparsers(dest=dest, required=True)

    def leaf(group, name: str, help: str) -> argparse.ArgumentParser:
        return group.add_parser(name, parents=[out], help=help, description=help)

    p = leaf(sub, "test", "run one identity test on an instance file")
    p.add_argument("--kind", required=True, choices=[k.value for k in TestKind])
    p.add_argument("--instance", required=True, help="instance JSON file")
    p.add_argument("--mode", choices=["circuit", "formula", "both"], default="both")

    protocols = leaves("protocol", "run a protocol exactly or by sampling", "protocol")
    srs = leaf(protocols, "srs", "sequential random swap on the states of an instance file")
    srs.add_argument("--instance", required=True, help="instance JSON file")
    srs.add_argument("--m", type=int, default=2, help="rounds")
    srs.add_argument("--policy", choices=["uniform", "canonical"], default="uniform",
                     help="pair re-choice policy, --exact only; echoed, as both give one value")
    rcir = leaf(protocols, "rcir", "randomized circle on the states of an instance file, "
                "or on a cycle of --n states whose first --r form one block")
    rcir.add_argument("--instance", help="instance JSON file")
    rcir.add_argument("--n", type=int, help=f"cycle length, at most {RCIR_EXACT_MAX_N}")
    rcir.add_argument("--r", type=int, help="distinguished block size")
    for p in (srs, rcir):
        p.add_argument("--exact", action="store_true", help="exact rational value")
        p.add_argument("--trials", type=int, default=10_000)
        p.add_argument("--seed", type=int,
                       help="Monte Carlo seed, drawn when not given; --exact only echoes it")

    sweeps = leaves("sweep", "tabulate a quantity over a grid", "target")
    for target, run in _SWEEPS.items():
        p = leaf(sweeps, target, run.__doc__)
        if target == "srs-vs-m":
            p.add_argument("--m-max", type=int, default=6)
        else:
            p.add_argument("--n-min", type=int, default=2)
            p.add_argument("--n-max", type=int, default=9)

    bounds = leaves("bounds", "evaluate one analytic bound", "which")
    for which, flags, help in (
        ("two-block", "nl", "soundness 1/C(n, l) of a split of n states into l and n-l"),
        ("q", "nrs", "per-divisor term q(n, r, s) and the case of its bound"),
        ("eq2", "nr", "randomized circle soundness bound: 1/n plus q(n, r, s) over s >= 2"),
        ("basel", "n", "asymptote pi^2/(6n) of the eq2 bound, beside 1.7/n"),
        ("gap", "", "swap test against the two-sided error bound on two qubit pairs"),
    ):
        p = leaf(bounds, which, help)
        for flag in flags:
            p.add_argument(f"--{flag}", type=int, required=True)

    sub.add_parser("selftest", help="run the full criteria suite")
    return parser


_RUNNERS = {
    "test": _cmd_test,
    "protocol": _cmd_protocol,
    "sweep": _cmd_sweep,
    "bounds": _cmd_bounds,
}


def _params_of(args: argparse.Namespace) -> dict[str, Any]:
    skip = {"command", "out", "json", "seed"}
    return {k: v for k, v in vars(args).items() if k not in skip and v is not None}


def _sidecar(out: str) -> Path:
    return Path(out + ".record.json")


def _check_out(args) -> None:
    """Refuse an --out whose CSV or record would overwrite the --instance file."""
    if args.out is None or args.instance is None:
        return
    written = {os.path.realpath(path) for path in (args.out, _sidecar(args.out))}
    if os.path.realpath(args.instance) in written:  # realpath: a symlink loop is no error here
        raise InputError(f"--out {args.out} would overwrite the instance file {args.instance}")


def _emit(args, rows: list[dict], record: RunRecord) -> None:
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as out:
            _write_csv(out, rows, record)
        _sidecar(args.out).write_text(
            json.dumps(asdict(record), indent=2, default=str) + "\n", encoding="utf-8"
        )
    if args.json:
        print(json.dumps(asdict(record), indent=2, default=str))
    elif args.out is None:
        _write_csv(sys.stdout, rows, record)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "selftest":
        from . import selftest  # only this command needs the criteria

        return 0 if selftest.run_all() else 1

    params = _params_of(args)
    started = time.perf_counter()
    try:
        _check_out(args)
        rows = _RUNNERS[args.command](args)
    except (CapExceededError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 3
    except (InputError, ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    wall_ms = int(round((time.perf_counter() - started) * 1000))
    # the id names the states an --instance run loaded, not the path it loaded them by
    key = params if args.instance is None else {**params, "instance": args.states_digest}
    record = RunRecord(
        command=args.command,
        params=params,
        outputs={"rows": len(rows)} if args.command == "sweep" else rows[0],
        seed=args.seed,
        wall_time_ms=wall_ms,
        run_id=_run_id(args.command, key, args.seed),
    )
    try:
        _emit(args, rows, record)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Subcommands: `test` (one identity test on an instance file), `protocol`
(exact or Monte Carlo protocol runs), `sweep` (CSV tables over parameter
grids), `bounds` (individual bound evaluations), and `selftest` (the full
criteria suite).

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


def _load(path: str) -> QsiInstance:
    try:
        return load_instance(path)
    except CapExceededError:
        raise
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot load instance {path}: {exc}") from exc


# --- subcommand runners ------------------------------------------------------
# Each returns its rows; every row holds all its columns, in order (None prints empty).

def _cmd_test(args) -> list[dict]:
    kind = TestKind(args.kind)
    inst = _load(args.instance)
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
    if not args.exact and args.trials < 1:
        raise InputError(f"--trials must be at least 1, got {args.trials}")
    if not args.exact and args.policy != "uniform":
        raise InputError(
            f"--policy {args.policy} needs --exact: Monte Carlo re-chooses pairs uniformly"
        )
    if args.protocol == "srs" and args.m < 1:
        raise InputError(f"--m must be at least 1, got {args.m}")
    if args.instance is not None:
        given = " ".join(f"--{flag}" for flag in "nr" if getattr(args, flag) is not None)
        if given:
            raise InputError(f"{given} cannot be given with --instance, which fixes the states")
        return
    if args.protocol != "rcir" or args.n is None or args.r is None:
        raise InputError("protocol needs --instance (or --n/--r for rcir)")
    if not 1 <= args.r <= args.n - 1:
        raise InputError(f"need 1 <= --r <= --n - 1, got --n {args.n} --r {args.r}")
    if args.n > RCIR_EXACT_MAX_N:
        raise CapExceededError(f"--n {args.n}: randomized circle capped at n={RCIR_EXACT_MAX_N}")


def _cmd_protocol(args) -> list[dict]:
    _check_protocol_args(args)
    inst = _load(args.instance) if args.instance is not None else None
    labels = promise_labels(inst) if inst is not None else (0,) * args.r + (1,) * (args.n - args.r)
    row: dict[str, Any] = {
        "protocol": args.protocol,
        "n": len(labels),
        "r": args.r,
        "m": args.m if args.protocol == "srs" else None,
        "policy": args.policy if args.protocol == "srs" else None,
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
    if args.m_max > SRS_EXACT_MAX_M:
        raise CapExceededError(
            f"--m-max {args.m_max}: exact sequential swap capped at m={SRS_EXACT_MAX_M}"
        )
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
    rows = _SWEEPS[args.target](args)
    if not rows:
        flags = (f"--m-max {args.m_max}" if args.target == "srs-vs-m"
                 else f"--n-min {args.n_min} --n-max {args.n_max}")
        raise InputError(f"sweep {args.target} has no rows for {flags}")
    return rows


def _cmd_bounds(args) -> list[dict]:
    which = args.which
    needs = {"two-block": "nl", "q": "nrs", "eq2": "nr", "basel": "n", "gap": ""}[which]
    missing = " ".join(f"--{flag}" for flag in needs if getattr(args, flag) is None)
    if missing:
        raise InputError(f"bounds {which} needs {missing}")
    row: dict[str, Any]
    if which == "two-block":
        value = two_block_soundness(args.n, args.l)
        row = {"bound": which, "n": args.n, "l": args.l,
               "value_rational": _rat(value), "value_float": float(value),
               "one_over_n_float": 1.0 / args.n}
    elif which == "q":
        value = q_value(args.n, args.r, args.s)
        row = {"bound": which, "n": args.n, "r": args.r, "s": args.s,
               "value_rational": _rat(value), "value_float": float(value),
               "case": q_case(args.n, args.r, args.s)[0]}
    elif which == "eq2":
        value = eq2_bound(args.n, args.r)
        row = {"bound": which, "n": args.n, "r": args.r,
               "value_rational": _rat(value), "value_float": float(value)}
    elif which == "basel":
        row = {"bound": which, "n": args.n,
               "pi2_over_6n": basel_asymptote(args.n), "loose_1_7_over_n": 1.7 / args.n}
    else:  # gap
        report = two_sided_gap_check()
        row = {"bound": which,
               "trace_dist": report.trace_dist,
               "completeness_error": report.completeness_error,
               "soundness_error": report.soundness_error,
               "error_sum": report.error_sum,
               "achieves_lower_bound": report.achieves_lower_bound}
    return [row]


# --- wiring ------------------------------------------------------------------

# Built on first use and kept: every call of main in one process reuses it.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsilab",
        description="identity-testing lab: circuits, closed forms, protocols, bounds",
    )
    # only protocol takes --seed, and only test and protocol read a file
    parser.set_defaults(seed=None, instance=None)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--out", help="write CSV here, and the run record to OUT.record.json")
        p.add_argument("--json", action="store_true", help="print the run record as JSON")

    p_test = sub.add_parser("test", help="run one identity test on an instance file")
    p_test.add_argument("--kind", required=True,
                        choices=[k.value for k in TestKind])
    p_test.add_argument("--instance", required=True, help="instance JSON file")
    p_test.add_argument("--mode", choices=["circuit", "formula", "both"],
                        default="both")
    common(p_test)

    p_proto = sub.add_parser("protocol", help="run a protocol exactly or by sampling")
    p_proto.add_argument("protocol", choices=["srs", "rcir"])
    p_proto.add_argument("--instance", help="instance JSON file")
    p_proto.add_argument("--n", type=int,
                         help=f"cycle length, at most {RCIR_EXACT_MAX_N} (rcir without a file)")
    p_proto.add_argument("--r", type=int, help="distinguished block size (rcir)")
    p_proto.add_argument("--m", type=int, default=2, help="rounds (srs)")
    p_proto.add_argument("--policy", choices=["uniform", "canonical"], default="uniform",
                         help="pair re-choice policy (srs --exact); only echoed in the "
                              "policy column, since the exact value is the same under both")
    p_proto.add_argument("--exact", action="store_true", help="exact rational value")
    p_proto.add_argument("--trials", type=int, default=10_000)
    p_proto.add_argument("--seed", type=int,
                         help="Monte Carlo seed, drawn when not given; --exact only echoes it")
    common(p_proto)

    p_sweep = sub.add_parser("sweep", help="tabulate a quantity over a grid")
    p_sweep.add_argument("target", choices=sorted(_SWEEPS))
    p_sweep.add_argument("--n-min", type=int, default=2)
    p_sweep.add_argument("--n-max", type=int, default=9)
    p_sweep.add_argument("--m-max", type=int, default=6)
    common(p_sweep)

    p_bounds = sub.add_parser("bounds", help="evaluate one analytic bound")
    p_bounds.add_argument("which", choices=["two-block", "q", "eq2", "basel", "gap"])
    p_bounds.add_argument("--n", type=int)
    p_bounds.add_argument("--l", type=int)
    p_bounds.add_argument("--r", type=int)
    p_bounds.add_argument("--s", type=int)
    common(p_bounds)

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
    if args.seed is not None and args.seed < 0:
        print(f"error: --seed must be non-negative, got {args.seed}", file=sys.stderr)
        return 2

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
    record = RunRecord(
        command=args.command,
        params=params,
        outputs={"rows": len(rows)} if args.command == "sweep" else rows[0],
        seed=args.seed,
        wall_time_ms=wall_ms,
        run_id=_run_id(args.command, params, args.seed),
    )
    try:
        _emit(args, rows, record)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())

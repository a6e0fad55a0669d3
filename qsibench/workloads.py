"""The benchmark's three workloads: seeded op lists with their output checks.

A workload is built from the seed alone. Building writes the instance files
the program reads (new files in a fresh directory) and pairs every op with a
check against `reference`, which does not import qsilab.

Each check returns a list of (category, message) problems. Category "value"
means a wrong number, a wrong echo of the input, or a failed run. Category
"interval" means the Monte Carlo confidence interval breaks its contract
(ci_lo <= p_hat <= ci_hi, exactly 1 at the top when every trial succeeded).
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref

Problem = tuple[str, str]
Check = Callable[[str], list[Problem]]

VALUE = "value"
INTERVAL = "interval"

FLOAT_ATOL = 1e-9
MC_SIGMAS = 5.0

#: measure_first_register keeps every outcome's full-size post-state, so a
#: circuit op may peak at |G|^2 * d^n complex128 values. Dimensions are capped
#: so that stays under ~1.6 GB: alternation n=6 d=3 (1.5 GB) is the largest op
#: kept. Permutation n=6 d=3 (about 5.8 GB measured) is left out. Dimensions
#: above 4 are left out too; they only add slow circuit ops (circle n=7 d=7
#: alone took 0.4 s).
MAX_POST_STATE_BYTES = 1.6e9
MAX_CIRCUIT_DIM = 4

CIRCUIT_MAX_N = {"swap": 2, "circle": 10, "permutation": 6, "alternation": 6}

#: The five partitions of three states.
THREE_STATE_PARTITIONS = (
    [[1, 2, 3]],
    [[1, 2], [3]],
    [[1, 3], [2]],
    [[1], [2, 3]],
    [[1], [2], [3]],
)


@dataclass
class Op:
    call: str  # "cli" (qsilab.cli.main(argv)) or "ps_lower_bound" (argv = [path])
    argv: list[str]
    check: Check


@dataclass
class Workload:
    ops: list[Op] = field(default_factory=list)
    files: dict[str, str] = field(default_factory=dict)  # path -> JSON text


class _Builder:
    def __init__(self, name: str, seed: int, workdir: Path, root: Path):
        self.rng = np.random.default_rng([seed, sorted(WORKLOADS).index(name)])
        self.workdir = workdir
        self.root = root
        self.wl = Workload()

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in lo..hi inclusive."""
        return int(self.rng.integers(lo, hi + 1))

    def instance(self, obj: dict) -> str:
        text = json.dumps(obj)
        path = self.workdir / f"i{len(self.wl.files):04d}.json"
        with open(path, "x", encoding="utf-8") as fh:
            fh.write(text)
        rel = str(path.relative_to(self.root))
        self.wl.files[rel] = text
        return rel

    def promise_instance(self, blocks: list[list[int]], dim: int) -> str:
        return self.instance({"n": sum(map(len, blocks)), "dim": dim, "partition": blocks,
                              "rotation_seed": self.randint(0, 2**31 - 1)})

    def cli(self, argv: list[str], check: Check) -> None:
        self.wl.ops.append(Op("cli", argv, check))


# --- output parsing and comparison helpers ----------------------------------

def _rows(out: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(out)))


def _one_row(out: str) -> dict[str, str]:
    rows = _rows(out)
    if len(rows) != 1:
        raise ValueError(f"expected one CSV row, got {len(rows)}")
    return rows[0]


def _same(problems: list[Problem], what: str, got, want) -> None:
    if got != want:
        problems.append((VALUE, f"{what}: got {got!r}, want {want!r}"))


def _close(problems: list[Problem], what: str, got: str, want: float,
           atol: float = FLOAT_ATOL) -> None:
    if not abs(float(got) - want) <= atol:
        problems.append((VALUE, f"{what}: got {got}, want {want!r}"))


def _exact(problems: list[Problem], what: str, got: str, want: Fraction) -> None:
    _same(problems, what, Fraction(got), want)


def _rat_text(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _labels(blocks: list[list[int]]) -> list[int]:
    n = sum(map(len, blocks))
    labels = [0] * n
    for b, block in enumerate(blocks):
        for i in block:
            labels[i - 1] = b
    return labels


def _layout(n: int, count: int, draw: int) -> list[list[int]]:
    """A fixed pseudo-random partition of 1..n into exactly `count` blocks.

    The layout does not depend on the benchmark seed: a circuit op's cost
    depends on it (through the number of nonzero outcomes), and the latency
    percentiles should not move with the seed. The seed picks the rotation.
    """
    rng = np.random.default_rng([n, count, draw])
    order = rng.permutation(n)
    labels = [0] * n
    for k, pos in enumerate(order):
        labels[pos] = k if k < count else int(rng.integers(count))
    blocks: dict[int, list[int]] = {}
    for i, lab in enumerate(labels, start=1):
        blocks.setdefault(lab, []).append(i)
    return list(blocks.values())


def _mc_problems(row: dict[str, str], trials: int, p: Fraction) -> list[Problem]:
    """Monte Carlo estimate within 5 sigma of p, and a well-formed interval."""
    problems: list[Problem] = []
    successes = int(row["successes"])
    p_hat, lo, hi = float(row["p_hat"]), float(row["ci_lo"]), float(row["ci_hi"])
    _same(problems, "trials", int(row["trials"]), trials)
    _close(problems, "p_hat", row["p_hat"], successes / trials, atol=1e-15)
    sigma = math.sqrt(float(p * (1 - p)) / trials)
    if not abs(p_hat - float(p)) <= MC_SIGMAS * sigma:
        problems.append((VALUE, f"p_hat {p_hat} is more than {MC_SIGMAS} sigma from {float(p)!r}"))
    want_lo, want_hi = ref.wilson_interval(successes, trials)
    if not (abs(lo - want_lo) <= 1e-9 and abs(hi - want_hi) <= 1e-9):
        problems.append((INTERVAL, f"interval ({lo}, {hi}) is not Wilson ({want_lo}, {want_hi})"))
    if not lo <= p_hat <= hi:
        problems.append((INTERVAL, f"p_hat {p_hat} outside its interval ({lo}, {hi})"))
    if successes == trials and hi != 1.0:
        problems.append((INTERVAL, f"ci_hi is {hi!r}, not 1, with {successes}/{trials} successes"))
    if successes == 0 and lo != 0.0:
        problems.append((INTERVAL, f"ci_lo is {lo!r}, not 0, with 0/{trials} successes"))
    return problems


# --- oracle-sweep ------------------------------------------------------------

def _max_circuit_dim(kind: str, n: int) -> int:
    group = {"swap": 2, "circle": n, "permutation": math.factorial(n),
             "alternation": math.factorial(n) // 2}[kind]
    d = 1
    while d < MAX_CIRCUIT_DIM and group * group * (d + 1) ** n * 16 <= MAX_POST_STATE_BYTES:
        d += 1
    return d


def _check_test(kind: str, mode: str, n: int, dim: int, want: float,
                want_rational: Fraction | None) -> Check:
    def check(out: str) -> list[Problem]:
        row = _one_row(out)
        problems: list[Problem] = []
        for col, val in (("kind", kind), ("mode", mode), ("n", str(n)), ("dim", str(dim))):
            _same(problems, col, row[col], val)
        cols = {"circuit": ["p_circuit"], "formula": ["p_formula"],
                "both": ["p_circuit", "p_formula"]}[mode]
        for col in cols:
            _close(problems, col, row[col], want)
        if mode == "both":
            _close(problems, "abs_diff", row["abs_diff"],
                   abs(float(row["p_circuit"]) - float(row["p_formula"])), atol=1e-15)
        if want_rational is None:
            _same(problems, "p_rational", row["p_rational"], "")
        else:
            _exact(problems, "p_rational", row["p_rational"], want_rational)
        return problems
    return check


def _check_ps(want: Fraction) -> Check:
    def check(out: str) -> list[Problem]:
        problems: list[Problem] = []
        _close(problems, "ps_lower_bound", out, float(want))
        return problems
    return check


def oracle_sweep(b: _Builder) -> None:
    """All four tests on n = 2..10: rotated promise instances and arbitrary
    states, circuit and formula together wherever the circuit caps allow,
    then ps_lower_bound on one promise instance per n."""
    ps_files: dict[int, tuple[str, list[int]]] = {}
    for kind in ("swap", "circle", "permutation", "alternation"):
        for n in range(2, 11) if kind != "swap" else [2]:
            circuit = n <= CIRCUIT_MAX_N[kind]
            mode = "both" if circuit else "formula"
            dim_cap = _max_circuit_dim(kind, n) if circuit else n
            block_counts = sorted({min(c, n, dim_cap) for c in (1, 2, 3, n)})
            arbitrary_dims = sorted({min(d, dim_cap) for d in (2, 3)})
            # The op mix is shaped so that the p90 rank falls inside the run of
            # ~33 ms ops (permutation formula at n=9, alternation circuit at
            # n=6) and not on a jump between two cost levels, where it would
            # swing with noise: the slowest kinds (n=10) get fewer ops, the
            # permutation test at n=9 gets every block count, and the light
            # cases (n <= 7) get two draws each.
            if kind in ("permutation", "alternation") and n == 10:
                block_counts, arbitrary_dims = [2, n], [2]
            elif kind == "permutation" and n == 9:
                block_counts = list(range(1, n + 1))
            elif n <= 7:
                block_counts, arbitrary_dims = block_counts * 2, arbitrary_dims * 2
            for draw, count in enumerate(block_counts):
                blocks = _layout(n, count, draw)
                dim = max(2, count)
                path = b.promise_instance(blocks, dim)
                exact = ref.promise_rational(kind, _labels(blocks))
                b.cli(["test", "--kind", kind, "--instance", path, "--mode", mode],
                      _check_test(kind, mode, n, dim, float(exact), exact))
                if kind == "permutation" and count == 2:
                    ps_files.setdefault(n, (path, _labels(blocks)))
            for dim in arbitrary_dims:
                z = b.rng.standard_normal((n, dim)) + 1j * b.rng.standard_normal((n, dim))
                z /= np.linalg.norm(z, axis=1, keepdims=True)
                path = b.instance({"n": n, "dim": dim, "states": [
                    [[float(a.real), float(a.imag)] for a in row] for row in z]})
                want = ref.ARBITRARY_PROB[kind](ref.gram(z))
                b.cli(["test", "--kind", kind, "--instance", path, "--mode", mode],
                      _check_test(kind, mode, n, dim, want, None))
    for path, labels in ps_files.values():
        # on a promise instance the symmetric-subspace overlap is the
        # permutation test's EQUAL probability
        want = ref.promise_rational("permutation", labels)
        b.wl.ops.append(Op("ps_lower_bound", [path], _check_ps(want)))


# --- protocol-mc -------------------------------------------------------------

#: 2000 trials is where `wilson_interval`'s all-success defect (ROADMAP item 0)
#: shows: 2000/2000 gives ci_hi = 0.9999999999999998.
SRS_TRIALS = 2000
RCIR_TRIALS = 150


def _check_mc(echo: dict[str, str], trials: int, p: Fraction) -> Check:
    def check(out: str) -> list[Problem]:
        row = _one_row(out)
        problems: list[Problem] = []
        for col, val in echo.items():
            _same(problems, col, row[col], val)
        return problems + _mc_problems(row, trials, p)
    return check


def protocol_mc(b: _Builder) -> None:
    """Sampled runs: sequential random swap on all five three-state partitions
    for m = 1..8, and the randomized circle on two-block instances with
    n = 4..16 (per-trial circuit up to n = 10, Gram formula above).

    The mix puts the p50 and p90 ranks inside the smooth run of srs costs
    (which rise with m), not on a jump between two rcir cost levels: each
    partition gets a second rotated instance for m = 1..4, and the light
    formula cases (n >= 11) get three r values where the circuit cases get six.
    """
    for blocks, m_max in [(blocks, 8) for blocks in THREE_STATE_PARTITIONS] + \
            [(blocks, 4) for blocks in THREE_STATE_PARTITIONS]:
        path = b.promise_instance(blocks, 3)
        for m in range(1, m_max + 1):
            b.cli(["protocol", "srs", "--instance", path, "--m", str(m),
                   "--trials", str(SRS_TRIALS), "--seed", str(b.randint(0, 2**32 - 1))],
                  _check_mc({"protocol": "srs", "n": "3", "m": str(m), "mode": "mc"},
                            SRS_TRIALS, ref.srs_exact(len(blocks), m)))
    for n in range(4, 17):
        # r is fixed per n so that the per-trial cost, which depends on r,
        # does not move with the seed; the seed picks the sample streams
        draws = 6 if n <= 10 else 3
        for r in sorted({1 + k * (n - 2) // (draws - 1) for k in range(draws)}):
            b.cli(["protocol", "rcir", "--n", str(n), "--r", str(r),
                   "--trials", str(RCIR_TRIALS), "--seed", str(b.randint(0, 2**32 - 1))],
                  _check_mc({"protocol": "rcir", "n": str(n), "r": str(r), "mode": "mc"},
                            RCIR_TRIALS, ref.rcir_exact(n, r)))


# --- exact-sweep -------------------------------------------------------------

def _check_exact(echo: dict[str, str], want: Fraction) -> Check:
    def check(out: str) -> list[Problem]:
        row = _one_row(out)
        problems: list[Problem] = []
        for col, val in echo.items():
            _same(problems, col, row[col], val)
        _exact(problems, "value_rational", row["value_rational"], want)
        _close(problems, "value_float", row["value_float"], float(want))
        return problems
    return check


def _check_table(want_rows: list[dict[str, str]]) -> Check:
    """Every cell of the expected table, in order; float cells to 1e-9."""
    def check(out: str) -> list[Problem]:
        rows = _rows(out)
        problems: list[Problem] = []
        _same(problems, "row count", len(rows), len(want_rows))
        for k, (row, want) in enumerate(zip(rows, want_rows)):
            for col, val in want.items():
                what = f"row {k} {col}"
                if val == "":
                    _same(problems, what, row[col], val)
                elif col.endswith("_float"):
                    _close(problems, what, row[col], float(val))
                elif col.endswith("_rational"):
                    _exact(problems, what, row[col], Fraction(val))
                else:
                    _same(problems, what, row[col], val)
        return problems
    return check


def _flag(x: bool) -> str:
    return "true" if x else "false"


def _rcir_vs_bound_rows(n_min: int, n_max: int) -> list[dict[str, str]]:
    rows = []
    for n in range(n_min, n_max + 1):
        for r in range(1, n // 2 + 1):
            exact, bound = ref.rcir_exact(n, r), ref.eq2_bound(n, r)
            rows.append({"n": str(n), "r": str(r), "exact_rational": _rat_text(exact),
                         "bound_rational": _rat_text(bound), "loose_float": repr(1.7 / n),
                         "within_bound": _flag(exact <= bound)})
    return rows


def _qbounds_rows(n_min: int, n_max: int) -> list[dict[str, str]]:
    rows = []
    for n in range(max(n_min, 4), n_max + 1):
        for r in range(1, n // 2 + 1):
            for s in range(2, r + 1):
                if n % s or r % s:
                    continue
                q, bound = ref.q_value(n, r, s), ref.q_case_bound(n, r, s)
                rows.append({
                    "n": str(n), "r": str(r), "s": str(s), "q_rational": _rat_text(q),
                    "case": ref.q_case(r, s),
                    "case_bound_rational": "" if bound is None else _rat_text(bound),
                    "holds": "" if bound is None else _flag(q <= bound),
                })
    return rows


def _perm_soundness_rows(n_min: int, n_max: int) -> list[dict[str, str]]:
    return [{"n": str(n), "l": str(l),
             "soundness_rational": _rat_text(ref.two_block_soundness(n, l)),
             "one_over_n_float": repr(1.0 / n)}
            for n in range(n_min, n_max + 1) for l in range(1, n)]


def _srs_vs_m_rows(m_max: int) -> list[dict[str, str]]:
    rows = []
    for m in range(1, m_max + 1):
        ti, ao = ref.srs_exact(2, m), ref.srs_exact(3, m)
        bound = Fraction(1, 3) + Fraction(1, 4 ** (m - 1))
        rows.append({"m": str(m), "two_identical_rational": _rat_text(ti),
                     "all_orthogonal_rational": _rat_text(ao),
                     "bound_rational": _rat_text(bound),
                     "within_bound": _flag(ti <= bound and ao <= bound)})
    return rows


SRS_EXACT_MAX_M = 12
SRS_VS_M_MAX_M = 10


def exact_sweep(b: _Builder) -> None:
    """Exact protocol values and bound tables: srs --exact for m = 1..12 under
    both policies on all five partitions, rcir --exact for n = 2..26, the four
    sweeps and the three rational bounds."""
    for blocks in THREE_STATE_PARTITIONS:
        path = b.promise_instance(blocks, 3)
        for m in range(1, SRS_EXACT_MAX_M + 1):
            for policy in ("uniform", "canonical"):
                b.cli(["protocol", "srs", "--exact", "--instance", path, "--m", str(m),
                       "--policy", policy],
                      _check_exact({"protocol": "srs", "m": str(m), "policy": policy,
                                    "mode": "exact"}, ref.srs_exact(len(blocks), m)))
    rcir_cases = [(n, b.randint(1, n - 1)) for n in range(2, 25)]
    for n in (25, 26):  # beyond the 2^n table: C(n, r) subsets, so r stays small
        rcir_cases += [(n, 5), (n, b.randint(1, 4))]
    for n, r in rcir_cases:
        b.cli(["protocol", "rcir", "--exact", "--n", str(n), "--r", str(r)],
              _check_exact({"protocol": "rcir", "n": str(n), "r": str(r), "mode": "exact"},
                           ref.rcir_exact(n, r)))
    n_min = b.randint(2, 6)
    b.cli(["sweep", "rcir-vs-bound", "--n-min", str(n_min), "--n-max", "24"],
          _check_table(_rcir_vs_bound_rows(n_min, 24)))
    n_min = b.randint(4, 8)
    b.cli(["sweep", "qbounds", "--n-min", str(n_min), "--n-max", "40"],
          _check_table(_qbounds_rows(n_min, 40)))
    n_min = b.randint(2, 5)
    b.cli(["sweep", "perm-soundness", "--n-min", str(n_min), "--n-max", "40"],
          _check_table(_perm_soundness_rows(n_min, 40)))
    b.cli(["sweep", "srs-vs-m", "--m-max", str(SRS_VS_M_MAX_M)],
          _check_table(_srs_vs_m_rows(SRS_VS_M_MAX_M)))
    for _ in range(4):
        n = b.randint(2, 40)
        l = b.randint(1, n - 1)
        b.cli(["bounds", "two-block", "--n", str(n), "--l", str(l)],
              _check_exact({"bound": "two-block", "n": str(n), "l": str(l)},
                           ref.two_block_soundness(n, l)))
    for _ in range(4):
        n = b.randint(4, 40)
        r = b.randint(1, n // 2)
        s = int(b.rng.choice([s for s in range(1, r + 1) if n % s == 0 and r % s == 0]))
        b.cli(["bounds", "q", "--n", str(n), "--r", str(r), "--s", str(s)],
              _check_exact({"bound": "q", "n": str(n), "r": str(r), "s": str(s),
                            "case": ref.q_case(r, s)}, ref.q_value(n, r, s)))
    for _ in range(4):
        n = b.randint(2, 40)
        r = b.randint(1, n // 2)
        b.cli(["bounds", "eq2", "--n", str(n), "--r", str(r)],
              _check_exact({"bound": "eq2", "n": str(n), "r": str(r)}, ref.eq2_bound(n, r)))


WORKLOADS: dict[str, Callable[[_Builder], None]] = {
    "oracle-sweep": oracle_sweep,
    "protocol-mc": protocol_mc,
    "exact-sweep": exact_sweep,
}


def build(name: str, seed: int, workdir: Path, root: Path) -> Workload:
    """Generate the named workload for `seed`, writing its instance files."""
    b = _Builder(name, seed, workdir, root)
    WORKLOADS[name](b)
    return b.wl

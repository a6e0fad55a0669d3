"""End-to-end self-checks reproducing every headline quantity of the lab.

Each criterion is a standalone function returning a CriterionResult; run_all
prints one pass/fail line per criterion. The same functions back the
acceptance test suite and the `qsilab selftest` command.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, TextIO

import numpy as np

from .bounds import (
    basel_asymptote,
    eq2_bound,
    inverse_square_tail_bracket,
    ps_lower_bound,
    q_case,
    q_value,
    two_block_soundness,
    two_sided_gap_check,
)
from .identity_tests import (
    TestKind,
    equal_prob_formula,
    equal_prob_rational,
    run_circuit,
)
from .instances import (
    QsiInstance,
    build_instance,
    random_structured_instance,
    random_unstructured_instance,
)
from .protocols import (
    mc_run,
    rcir_exact,
    srs_batch,
    srs_closed_form,
    srs_exact,
    srs_path_sum,
    srs_round,
    srs_start,
)


@dataclass(frozen=True)
class CriterionResult:
    index: int
    name: str
    passed: bool
    detail: str


def _finish(index: int, name: str, problems: list[str], detail: str) -> CriterionResult:
    if problems:
        detail = "; ".join(problems[:8])
    return CriterionResult(index, name, not problems, detail)


def _two_block(n: int, l: int) -> QsiInstance:
    return build_instance([0] * l + [1] * (n - l), dim=2)


def criterion_1() -> CriterionResult:
    problems: list[str] = []
    yes = build_instance([0, 0], dim=2)
    orth = _two_block(2, 1)
    p_yes = run_circuit(TestKind.SWAP, yes).p_equal
    p_orth = run_circuit(TestKind.SWAP, orth).p_equal
    if abs(p_yes - 1.0) > 1e-12:
        problems.append(f"equal pair gave p={p_yes!r}")
    if abs(p_orth - 0.5) > 1e-12:
        problems.append(f"orthogonal pair gave p={p_orth!r}")
    return _finish(
        1,
        "swap circuit: p=1 on an equal pair, p=1/2 on an orthogonal pair",
        problems,
        f"p(equal)={p_yes:.15g} p(orthogonal)={p_orth:.15g}",
    )


def _criterion_2_cases():
    kinds = [TestKind.SWAP, TestKind.CIRCLE, TestKind.PERMUTATION, TestKind.ALTERNATION]
    for i in range(216):
        kind = kinds[i % 4]
        flavor = (i // 4) % 3  # 0 plain, 1 rotated, 2 unstructured
        if kind is TestKind.SWAP:
            n = 2
        elif kind is TestKind.CIRCLE:
            n = 2 + i % 5
        else:
            n = 2 + i % 4
        seed = 90_000 + i
        if flavor == 2:
            inst = random_unstructured_instance(n, dim=2 + i % 2, seed=seed)
        else:
            inst = random_structured_instance(
                n, seed=seed, rotate=flavor == 1, max_blocks=3
            )
        yield kind, inst


def criterion_2() -> CriterionResult:
    problems: list[str] = []
    count = 0
    worst = 0.0
    for kind, inst in _criterion_2_cases():
        count += 1
        circuit = run_circuit(kind, inst).p_equal
        formula = equal_prob_formula(kind, inst)
        diff = abs(circuit - formula)
        worst = max(worst, diff)
        if diff > 1e-9:
            problems.append(f"{kind.value} n={inst.n} diff={diff:.3g}")
    if count < 200:
        problems.append(f"only {count} instances exercised")
    return _finish(
        2,
        "circuit and closed form agree within 1e-9 on randomized instances",
        problems,
        f"{count} instances (plain/rotated/unstructured, all four kinds), max |diff|={worst:.3g}",
    )


def criterion_3() -> CriterionResult:
    problems: list[str] = []
    checked = 0
    for n in range(2, 10):
        for l in range(1, n):
            want = two_block_soundness(n, l)
            inst = _two_block(n, l)
            kinds = [TestKind.PERMUTATION] + ([TestKind.ALTERNATION] if n >= 3 else [])
            for kind in kinds:
                circuit = run_circuit(kind, inst).p_equal
                got = equal_prob_rational(kind, inst)
                if abs(circuit - float(want)) > 1e-12 or got != want:
                    problems.append(f"{kind.value} n={n} l={l}: {circuit!r} (circuit), {got} != {want}")
                checked += 1
    if equal_prob_rational(TestKind.PERMUTATION, _two_block(3, 2)) != Fraction(1, 3):
        problems.append("(n,l)=(3,2) is not exactly 1/3")
    return _finish(
        3,
        "two-block soundness equals l!(n-l)!/n! exactly (alternation from n=3)",
        problems,
        f"{checked} (n,l,kind) points for n<=9; (3,2) = 1/3 exactly",
    )


def criterion_4() -> CriterionResult:
    problems: list[str] = []
    for n in range(2, 9):
        worst = build_instance([0] + [1] * (n - 1), dim=2)
        got = ps_lower_bound(worst)
        if got != 1.0 / n:
            problems.append(f"n={n}: symmetric-overlap witness {got!r} != 1/{n}")
    dominance_checked = 0
    pool: list[QsiInstance] = []
    pool += [_two_block(n, l) for n in (2, 3, 4, 5, 6) for l in range(1, n)]
    pool += [random_structured_instance(n, seed=7_700 + n, rotate=True) for n in (2, 3, 4)]
    pool += [random_unstructured_instance(n, dim, seed=7_800 + 100 * n + 10 * dim + s)
             for n in range(3, 9) for dim in (2, 3, 4) for s in range(5)]
    for inst in pool:
        floor = ps_lower_bound(inst)
        for kind in TestKind:
            if kind is TestKind.SWAP and inst.n != 2:
                continue
            p = equal_prob_formula(kind, inst)
            dominance_checked += 1
            if p < floor - 1e-9:
                problems.append(f"{kind.value} n={inst.n}: p={p} below witness {floor}")
    return _finish(
        4,
        "symmetric-subspace witness equals 1/n and floors every test's EQUAL probability",
        problems,
        f"witness exact for n<=8; dominance held on {dominance_checked} (instance, kind) pairs",
    )


def criterion_5() -> CriterionResult:
    problems: list[str] = []
    lopsided = build_instance([0, 0, 0, 1], dim=2)
    alternating = build_instance([0, 1, 0, 1], dim=2)
    got_a = equal_prob_rational(TestKind.CIRCLE, lopsided)
    got_b = equal_prob_rational(TestKind.CIRCLE, alternating)
    if got_a != Fraction(1, 4):
        problems.append(f"(x,x,x,y) gave {got_a}, want 1/4")
    if got_b != Fraction(1, 2):
        problems.append(f"(x,y,x,y) gave {got_b}, want 1/2")
    # the circuit's EQUAL probability is the mean over the n shifted copies
    for inst, want in ((lopsided, 0.25), (alternating, 0.5)):
        p = run_circuit(TestKind.CIRCLE, inst).p_equal
        if abs(p - want) > 1e-12:
            problems.append(f"circuit gave {p!r}, want {want}")
    return _finish(
        5,
        "circle test at n=4: exactly 1/4 on (x,x,x,y) and 1/2 on (x,y,x,y)",
        problems,
        f"s/n values {got_a} and {got_b} from both the group count and the shift count",
    )


def criterion_6() -> CriterionResult:
    problems: list[str] = []
    total = 0
    for n in (2, 3, 5, 7, 11, 13):
        # every two-block alignment as a 0/1 row; its fixing shifts are counted over
        # all n rolls, independently of the divisor loop in fixed_shifts
        rows = np.arange(1, (1 << n) - 1)[:, None] >> np.arange(n) & 1
        fixing = sum((np.roll(rows, j, axis=1) == rows).all(axis=1) for j in range(n))
        total += len(rows)
        bad = int(np.count_nonzero(fixing != 1))
        if bad:
            problems.append(f"n={n}: {bad} alignments with repetition number > 1")
        probe = build_instance([0] + [1] * (n - 1), dim=2)
        if equal_prob_rational(TestKind.CIRCLE, probe) != Fraction(1, n):
            problems.append(f"n={n}: circle soundness != 1/{n}")
    return _finish(
        6,
        "prime n: every two-block alignment has circle soundness exactly 1/n",
        problems,
        f"{total} alignments over n in {{2,3,5,7,11,13}}, all with repetition number 1",
    )


def criterion_7() -> CriterionResult:
    problems: list[str] = []
    cf = {k: srs_closed_form(k) for k in range(1, 9)}
    if cf[1].p != Fraction(1, 2) or cf[2].p != Fraction(3, 4):
        problems.append(f"pass probabilities p1={cf[1].p}, p2={cf[2].p}")
    if cf[1].a != 0 or cf[2].a != 1:
        problems.append(f"state coefficients a1={cf[1].a}, a2={cf[2].a}")
    running = Fraction(1)
    for k in range(1, 9):
        running *= cf[k].p
        if cf[k].q != Fraction(1, 3) + Fraction(2, 3 * 4**k) or cf[k].q != running:
            problems.append(f"q_{k} mismatch")

    two_ident = build_instance([0, 1, 0], dim=2)
    all_orth = build_instance([0, 1, 2], dim=3)
    for m in range(1, 7):
        exact = srs_exact([2, 1], m)
        q_m = cf[m].q
        q_prev = cf[m - 1].q if m > 1 else Fraction(1)
        if exact != Fraction(2, 3) * q_m + Fraction(1, 3) * q_prev:
            problems.append(f"m={m}: exact {exact} != (2/3)q_m + (1/3)q_(m-1)")
        if exact > Fraction(1, 3) + Fraction(1, 4 ** (m - 1)):
            problems.append(f"m={m}: exact {exact} exceeds 1/3 + 1/4^(m-1)")
        if srs_exact([3], m) != 1:
            problems.append(f"m={m}: YES instance not accepted with certainty")

    # the kernel the Monte Carlo samples, summed over every pair path
    for labels in ([0, 0, 0], [0, 0, 1], [0, 1, 0], [1, 0, 0], [0, 1, 2]):
        inst = build_instance(labels, dim=3)
        sizes = np.bincount(labels).tolist()
        for m, value in enumerate(srs_path_sum(inst, 12), start=1):
            if abs(value - float(srs_exact(sizes, m))) > 1e-12:
                problems.append(f"m={m}: {labels} exact {srs_exact(sizes, m)} != path sum {value!r}")

    # keep-second path on (x, y, x): flat index of y in register 1, 2, 3 is 4, 2, 1,
    # and swaps holds the pairs (1, 2), (1, 3), (2, 3) in rows i + j - 3
    table, swaps = srs_start(two_ident)
    for k, (i, j) in enumerate(((1, 2), (2, 3), (1, 3), (2, 3), (1, 3), (2, 3)), start=1):
        equal, p0 = srs_round(table, swaps[[i + j - 3]])
        table = equal / math.sqrt(p0[0])
        amps = dict(zip((1, 2, 3), equal[0, [4, 2, 1]]))
        a, left = cf[k].a, amps[6 - i - j]
        ratio = left / amps[i] if k % 2 == 1 else amps[i] / left
        if abs(p0[0] - float(cf[k].p)) > 1e-12:
            problems.append(f"kernel round {k}: pass prob {p0[0]!r} != {cf[k].p}")
        if abs(amps[i] - amps[j]) > 1e-12 or abs(ratio - float(a / (a + 1))) > 1e-12:
            problems.append(f"kernel round {k}: amplitudes {amps} off pattern (a={a})")

    trials = 100_000
    mc_cases = [
        (all_orth, 1, Fraction(1, 2)),
        (all_orth, 2, Fraction(1, 4)),
        (two_ident, 2, Fraction(5, 12)),
    ]
    mc_report = []
    for idx, (inst, m, expect) in enumerate(mc_cases):
        est = mc_run(
            lambda rng, k, inst=inst, m=m: srs_batch(inst, m, rng, k),
            trials,
            base_seed=2_000_000 + idx,
        )
        sigma = math.sqrt(float(expect) * (1 - float(expect)) / trials)
        dev = abs(est.p_hat - float(expect)) / sigma
        mc_report.append(f"{dev:.2f}")
        if dev > 5.0:
            problems.append(f"MC case m={m}: {est.p_hat} vs {expect} is {dev:.1f} sigma")
    return _finish(
        7,
        "sequential swap: closed forms, exact evaluator, and Monte Carlo all agree",
        problems,
        "two-identical exact value is 1/3 + (1/3)/4^(m-1); "
        f"MC deviations {'/'.join(mc_report)} sigma at {trials} trials",
    )


def criterion_8() -> CriterionResult:
    problems: list[str] = []
    worst_ratio = Fraction(0)
    n_max = 200
    for n in range(2, n_max + 1):
        prime = all(n % p for p in range(2, math.isqrt(n) + 1))
        best = Fraction(0)
        for r in range(1, n // 2 + 1):
            exact = rcir_exact([r, n - r])
            bound = eq2_bound(n, r)
            if exact > bound:
                problems.append(f"n={n} r={r}: exact {exact} exceeds bound {bound}")
            if prime and exact != Fraction(1, n):
                problems.append(f"prime n={n} r={r}: exact {exact} != 1/{n}")
            best = max(best, exact)
        worst_ratio = max(worst_ratio, n * best)
    checked = 0
    for n in range(4, 41):
        for r in range(1, n // 2 + 1):
            for s in range(2, r + 1):
                if n % s or r % s:
                    continue
                if q_value(n, r, s) > q_case(n, r, s)[1]:
                    problems.append(f"case bound fails at (n,r,s)=({n},{r},{s})")
                else:
                    checked += 1
    lo, hi = inverse_square_tail_bracket(20_000)
    target = math.pi**2 / 6 - 1
    if not (lo <= target <= hi):
        problems.append(f"tail bracket [{lo}, {hi}] misses pi^2/6 - 1")
    if hi - lo > 1e-8:
        problems.append(f"tail bracket width {hi - lo:.3g} wider than 1e-8")
    return _finish(
        8,
        "randomized circle soundness never exceeds its divisor-sum bound",
        problems,
        f"all n<={n_max} and r<=n/2 verified exactly; max n*soundness = {worst_ratio} "
        f"({float(worst_ratio):.4f}) vs pi^2/6 = {n_max * basel_asymptote(n_max):.4f}; "
        f"{checked} case bounds hold; "
        f"inverse-square tail bracketed within {hi - lo:.2g}",
    )


def criterion_9() -> CriterionResult:
    problems: list[str] = []
    report = two_sided_gap_check()
    if abs(report.trace_dist - 0.5) > 1e-10:
        problems.append(f"trace distance {report.trace_dist!r} != 1/2")
    if report.completeness_error > 1e-12:
        problems.append(f"completeness error {report.completeness_error!r} != 0")
    if abs(report.soundness_error - 0.5) > 1e-12:
        problems.append(f"soundness error {report.soundness_error!r} != 1/2")
    return _finish(
        9,
        "equal/orthogonal ensembles sit at trace distance 1/2 and the swap test saturates it",
        problems,
        f"trace distance {report.trace_dist:.12g}, error sum {report.error_sum:.12g}",
    )


ALL_CRITERIA: tuple[Callable[[], CriterionResult], ...] = (
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
)


def run_all(stream: TextIO | None = None) -> bool:
    """Run every criterion, printing one line each; True iff all passed."""
    stream = stream or sys.stdout
    all_ok = True
    for fn in ALL_CRITERIA:
        result = fn()
        status = "PASS" if result.passed else "FAIL"
        print(f"criterion {result.index}: {status} - {result.name} [{result.detail}]",
              file=stream)
        all_ok &= result.passed
    return all_ok

"""Acceptance suite: one test per criterion, each printing its pass line.

Criteria 1-9 run through the selftest module (the same code behind
`qsilab selftest`); criterion 10 exercises the command itself, whose
output must match `selftest_expected.txt` byte for byte, plus the
byte-identical-replay guarantee of sweeps. A change that moves a reported
value must edit that file.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from qsilab import selftest


def _run(criterion) -> None:
    result = criterion()
    status = "PASS" if result.passed else "FAIL"
    print(f"ACCEPTANCE {result.index}: {status} - {result.name} [{result.detail}]")
    assert result.passed, f"criterion {result.index}: {result.detail}"


def test_criterion_01_swap_exact_probabilities():
    _run(selftest.criterion_1)


def test_criterion_02_circuit_formula_agreement():
    _run(selftest.criterion_2)


def test_criterion_03_two_block_soundness_rationals():
    _run(selftest.criterion_3)


def test_criterion_04_symmetric_witness_and_dominance():
    _run(selftest.criterion_4)


def test_criterion_05_circle_dichotomy_at_four():
    _run(selftest.criterion_5)


def test_criterion_06_prime_circle_exhaustive():
    _run(selftest.criterion_6)


def test_criterion_07_sequential_swap_protocol():
    _run(selftest.criterion_7)


def test_criterion_08_randomized_circle_bounds():
    _run(selftest.criterion_8)


def test_criterion_09_two_sided_trace_distance():
    _run(selftest.criterion_9)


def test_criterion_10_selftest_command_and_replay(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "qsilab.cli", "selftest"],
        capture_output=True,
        text=True,
        timeout=1200,
    )
    print(proc.stdout)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = [l for l in proc.stdout.splitlines() if l.startswith("criterion")]
    assert len(lines) == 9
    assert all("PASS" in l for l in lines)
    expected = (Path(__file__).parent / "selftest_expected.txt").read_text(encoding="utf-8")
    assert proc.stdout == expected

    sweep_a = tmp_path / "a.csv"
    sweep_b = tmp_path / "b.csv"
    for target in (sweep_a, sweep_b):
        proc = subprocess.run(
            [
                sys.executable, "-m", "qsilab.cli", "sweep", "perm-soundness",
                "--n-min", "2", "--n-max", "8", "--out", str(target),
            ],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
    identical = sweep_a.read_bytes() == sweep_b.read_bytes()
    print(f"ACCEPTANCE 10: {'PASS' if identical else 'FAIL'} - selftest exits 0 and "
          f"sweep reruns are byte-identical")
    assert identical

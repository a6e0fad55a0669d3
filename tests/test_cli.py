import csv
import io
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import qsilab
from qsilab import cli, selftest
from qsilab.cli import _build_parser, main
from qsilab.instances import _decode, instance_from_json, random_unstructured_instance
from qsilab.limits import RCIR_EXACT_MAX_N, SRS_EXACT_MAX_M

from conftest import count_label_rows

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "qsibench"))

import workloads  # noqa: E402  (the benchmark's op lists, each op with its output check)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_under_1gib(*argv) -> subprocess.CompletedProcess:
    """The CLI in a subprocess under a 1 GiB address-space cap, where a run that
    allocates far beyond its inputs exits 3 (out of memory) instead of filling
    the machine."""
    probe = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from qsilab.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    return subprocess.run(
        [sys.executable, "-c", probe, *argv], capture_output=True, text=True, timeout=120,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
    )


def parse_csv(text):
    rows = list(csv.DictReader(io.StringIO(text)))
    return rows


class ReadRecorder:
    """Stands in for a runner's argparse namespace and notes each attribute read."""

    def __init__(self, args, read: set):
        object.__setattr__(self, "_args", args)
        object.__setattr__(self, "_read", read)

    def __getattr__(self, name):
        self._read.add(name)
        return getattr(self._args, name)

    def __setattr__(self, name, value):
        setattr(self._args, name, value)


@pytest.fixture
def orth_pair(tmp_path):
    path = tmp_path / "orth_pair.json"
    path.write_text(json.dumps({"n": 2, "dim": 2, "partition": [[1], [2]]}))
    return str(path)


@pytest.fixture
def figure_instance(tmp_path):
    # 12-cycle with the distinguished block repeated three times
    path = tmp_path / "cycle12.json"
    path.write_text(
        json.dumps(
            {"n": 12, "dim": 2, "partition": [[1, 2, 5, 6, 9, 10], [3, 4, 7, 8, 11, 12]]}
        )
    )
    return str(path)


@pytest.fixture
def orth_triple(tmp_path):
    path = tmp_path / "orth3.json"
    path.write_text(json.dumps({"n": 3, "dim": 3, "partition": [[1], [2], [3]]}))
    return str(path)


class TestTestCommand:
    def test_swap_orthogonal_pair(self, capsys, orth_pair):
        code, out, _ = run_cli(capsys, "test", "--kind", "swap", "--instance", orth_pair)
        assert code == 0
        (row,) = parse_csv(out)
        assert float(row["p_circuit"]) == pytest.approx(0.5, abs=1e-12)
        assert float(row["p_formula"]) == pytest.approx(0.5, abs=1e-12)
        assert float(row["abs_diff"]) <= 1e-9
        assert row["p_rational"] == "1/2"

    def test_circle_on_repeated_alignment(self, capsys, figure_instance):
        code, out, _ = run_cli(capsys, "test", "--kind", "circle", "--instance",
                               figure_instance, "--mode", "formula")
        assert code == 0
        (row,) = parse_csv(out)
        assert float(row["p_formula"]) == pytest.approx(0.25, abs=1e-12)
        assert row["p_rational"] == "1/4"

    def test_permutation_on_yes_instance(self, capsys, tmp_path):
        path = tmp_path / "yes.json"
        path.write_text(json.dumps({"n": 3, "dim": 2, "partition": [[1, 2, 3]]}))
        code, out, _ = run_cli(capsys, "test", "--kind", "permutation",
                               "--instance", str(path))
        assert code == 0
        (row,) = parse_csv(out)
        assert float(row["p_circuit"]) == pytest.approx(1.0, abs=1e-12)

    def test_malformed_instance_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run_cli(capsys, "test", "--kind", "swap", "--instance", str(bad))
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("payload", [
        {"n": 2, "dim": 2, "partition": 5},
        {"n": 2, "dim": 2, "states": [[1, 0], [0, 1]]},
        {"n": 2, "dim": 2, "states": [[["a", 0], [0, 0]], [[1, 0], [0, 0]]]},
        {"n": 2, "dim": 2, "states": 5},
        {"n": 2.9, "dim": "2", "partition": [[1.7], ["2"]], "rotation_seed": 3.5},
        {"n": 2, "dim": 2, "states": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
         "partition": [[1], [2]]},
    ])
    def test_wrong_typed_fields_exit_2_without_traceback(self, tmp_path, payload):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        proc = subprocess.run(
            [sys.executable, "-m", "qsilab.cli", "test", "--kind", "swap", "--instance", str(bad)],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 2, proc.stderr
        assert "cannot load instance" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("payload,message", [
        # 51 bytes that name 10^8 states
        ({"n": 100_000_000, "dim": 2, "partition": [[1], [2]]},
         "blocks must cover 1..100000000 exactly, got [1, 2]"),
        ({"n": 2, "dim": 2, "partition": [[1, 1], [2]]}, "partition blocks must be disjoint"),
    ])
    def test_partition_entries_checked_as_listed(self, tmp_path, payload, message):
        # a decoder that builds 1..n runs out of memory here
        path = tmp_path / "partition.json"
        path.write_text(json.dumps(payload))
        proc = run_under_1gib("test", "--kind", "swap", "--instance", str(path))
        assert proc.returncode == 2, proc.stderr
        assert message in proc.stderr and "Traceback" not in proc.stderr

    def test_blocks_checked_before_the_rotation_is_drawn(self, tmp_path):
        # the 20000 x 20000 Haar draw alone would take 2.98 GiB
        path = tmp_path / "rotated.json"
        path.write_text(json.dumps({"n": 2, "dim": 20_000, "partition": [[1], [1]],
                                    "rotation_seed": 1}))
        proc = run_under_1gib("test", "--kind", "swap", "--instance", str(path))
        assert proc.returncode == 2, proc.stderr
        assert "partition blocks must be disjoint" in proc.stderr

    def test_partition_file_costs_what_its_states_cost(self, tmp_path):
        # two states of dim 10^5 take 3.2 MB, rows of the dim x dim identity 149 GiB
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({"n": 2, "dim": 100_000, "partition": [[1], [2]]}))
        proc = run_under_1gib("test", "--kind", "swap", "--mode", "formula", "--instance", str(path))
        assert proc.returncode == 0, proc.stderr
        assert parse_csv(proc.stdout)[0]["p_rational"] == "1/2"

    def test_run_id_names_the_states_not_the_path(self, capsys, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        pair = tmp_path / "p2.json"
        pair.write_text(json.dumps({"n": 2, "dim": 2, "partition": [[1], [2]]}))
        (tmp_path / "states.json").write_text(json.dumps(
            {"n": 2, "dim": 2, "states": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}))

        def record(path):
            code, out, err = run_cli(capsys, "test", "--kind", "swap", "--instance", path, "--json")
            assert code == 0, err
            return json.loads(out)

        paths = ["p2.json", "./p2.json", str(pair), "states.json"]
        records = [record(path) for path in paths]
        assert [rec["params"]["instance"] for rec in records] == paths
        assert len({rec["run_id"] for rec in records}) == 1
        pair.write_text(json.dumps({"n": 2, "dim": 2, "partition": [[1, 2]]}))
        rewritten = record("p2.json")
        assert rewritten["outputs"]["p_rational"] == "1/1"
        assert rewritten["run_id"] != records[0]["run_id"]

    def test_repeated_calls_print_the_same_bytes(self, capsys, tmp_path, orth_triple):
        # only a Monte Carlo run draws, so only it records a seed
        rotated = tmp_path / "rotated.json"
        rotated.write_text(json.dumps(
            {"n": 3, "dim": 3, "partition": [[1, 3], [2]], "rotation_seed": 11}))
        _decode.cache_clear()
        for argv, seed in (
            (("protocol", "srs", "--instance", orth_triple, "--m", "3", "--exact"), ""),
            (("protocol", "srs", "--instance", orth_triple, "--m", "3", "--exact",
              "--seed", "1"), "1"),
            (("protocol", "rcir", "--exact", "--n", "6", "--r", "2"), ""),
            (("protocol", "srs", "--instance", str(rotated), "--m", "4", "--trials", "500",
              "--seed", "1"), "1"),
            (("test", "--kind", "permutation", "--mode", "both", "--instance", str(rotated)), ""),
            (("sweep", "qbounds"), ""),
            (("bounds", "gap"), ""),
        ):
            outs = []
            for _ in range(2):
                code, out, _ = run_cli(capsys, *argv)
                assert code == 0
                outs.append(out)
            assert outs[0] == outs[1] and outs[0]
            assert {row["seed"] for row in parse_csv(outs[0])} == {seed}, argv
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"n": 2, "dim": 2, "partition": [[1], [2]], "rotation_seed": 3.5}))
        for _ in range(2):
            code, _, err = run_cli(capsys, "test", "--kind", "swap", "--instance", str(bad))
            assert code == 2
            assert "cannot load instance" in err

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "test", "--kind", "swap",
                             "--instance", str(tmp_path / "nope.json"))
        assert code == 2

    def test_cap_violation_exits_3(self, capsys, tmp_path, monkeypatch):
        # 54 copies of 4^10 amplitudes overflow the default budget of 2^24
        monkeypatch.delenv("QSI_MAX_AMPS", raising=False)
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"n": 10, "dim": 4, "partition": [list(range(1, 11))]}))
        code, _, err = run_cli(capsys, "test", "--kind", "permutation",
                               "--instance", str(path), "--mode", "circuit")
        assert code == 3
        assert "budget" in err and "QSI_MAX_AMPS" in err

    @pytest.mark.parametrize(
        "kind,n,extra,cap",
        [
            ("circle", 25, [], "circle test capped at n=24, got 25"),
            ("permutation", 11, ["--mode", "formula"],
             "permutation and alternation tests capped at n=10, got 11"),
        ],
    )
    def test_kind_n_cap_exits_3_naming_it(self, capsys, tmp_path, kind, n, extra, cap):
        path = tmp_path / "over.json"
        path.write_text(json.dumps({"n": n, "dim": 2, "partition": [list(range(1, n + 1))]}))
        code, out, err = run_cli(capsys, "test", "--kind", kind, "--instance", str(path), *extra)
        assert code == 3
        assert out == "" and err == f"error: {cap}\n"

    def test_refused_load_computes_no_labels(self, capsys, tmp_path, monkeypatch):
        # the label row is computed only when a command asks for it
        path = tmp_path / "n30.json"
        path.write_text(json.dumps({"n": 30, "dim": 2, "partition": [list(range(1, 16)),
                                                                     list(range(16, 31))]}))
        _decode.cache_clear()
        calls = count_label_rows(monkeypatch)
        code, out, err = run_cli(capsys, "test", "--kind", "circle", "--instance", str(path))
        assert code == 3
        assert out == "" and err == "error: circle test capped at n=24, got 30\n"
        assert calls == []

    def test_empty_partition_exits_2_naming_the_shape(self, capsys, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"n": 0, "dim": 2, "partition": []}))
        code, out, err = run_cli(capsys, "test", "--kind", "circle", "--instance", str(path))
        assert code == 2 and out == ""
        assert err == (f"error: cannot load instance {path}: states must be a non-empty "
                       "(n, dim) array, got shape (0, 2)\n")

    def test_states_only_promise_file_prints_p_rational(self, capsys, tmp_path):
        # p_rational comes from the labels the states define, so a states-only copy
        # of a rotated partition file prints the file's value; Gaussian states print none
        def as_states(states):
            return {"n": len(states), "dim": states.shape[1],
                    "states": [[[a.real, a.imag] for a in row] for row in states.tolist()]}

        partition = {"n": 4, "dim": 3, "partition": [[2, 4], [1], [3]], "rotation_seed": 8}
        files = {}
        for name, payload in (
            ("partition", partition),
            ("states", as_states(instance_from_json(partition).states)),
            ("gaussian", as_states(random_unstructured_instance(4, 3, seed=2).states)),
        ):
            files[name] = tmp_path / f"{name}.json"
            files[name].write_text(json.dumps(payload))
        for kind in ("circle", "permutation", "alternation"):
            cells = {}
            for name, path in files.items():
                code, out, err = run_cli(capsys, "test", "--kind", kind, "--instance", str(path),
                                         "--mode", "formula")
                assert code == 0, err
                cells[name] = parse_csv(out)[0]["p_rational"]
            want = {"circle": "1/4", "permutation": "1/12", "alternation": "1/12"}[kind]
            assert cells == {"partition": want, "states": want, "gaussian": ""}, kind

    @pytest.mark.parametrize("raw", ["abc", "1e6", "0", "-5"])
    def test_bad_amplitude_budget_exits_2_naming_it(self, capsys, orth_pair, monkeypatch, raw):
        monkeypatch.setenv("QSI_MAX_AMPS", raw)
        code, out, err = run_cli(capsys, "test", "--kind", "swap", "--instance", orth_pair)
        assert code == 2
        assert out == ""
        assert err == f"error: QSI_MAX_AMPS must be a positive integer, got {raw!r}\n"

    def test_non_real_formula_exits_2(self, capsys, orth_pair, monkeypatch):
        def non_real(kind, inst):
            raise ArithmeticError("group average has imaginary part 0.5")

        monkeypatch.setattr("qsilab.cli.equal_prob_formula", non_real)
        code, _, err = run_cli(capsys, "test", "--kind", "swap", "--instance", orth_pair,
                               "--mode", "formula")
        assert code == 2
        assert err == "error: group average has imaginary part 0.5\n"

    def test_out_of_memory_exits_3(self, capsys, orth_pair, monkeypatch):
        def no_memory(kind, inst):
            raise MemoryError

        monkeypatch.setattr("qsilab.cli.run_circuit", no_memory)
        code, _, err = run_cli(capsys, "test", "--kind", "swap", "--instance", orth_pair,
                               "--mode", "circuit")
        assert code == 3
        assert err == "error: out of memory\n"

    def test_unwritable_output_exits_4(self, capsys, orth_pair, tmp_path):
        target = tmp_path / "no_such_dir" / "out.csv"
        code, _, _ = run_cli(capsys, "test", "--kind", "swap", "--instance", orth_pair,
                             "--out", str(target))
        assert code == 4

    def test_json_record(self, capsys, orth_pair, tmp_path):
        code, out, _ = run_cli(capsys, "test", "--kind", "swap", "--instance", orth_pair,
                               "--mode", "formula", "--json")
        assert code == 0
        record = json.loads(out)
        assert record["command"] == "test"
        assert record["seed"] is None
        assert record["outputs"]["p_rational"] == "1/2"
        assert record["outputs"]["p_circuit"] is None and record["outputs"]["abs_diff"] is None
        assert "wall_time_ms" in record and "run_id" in record
        # a Monte Carlo run records its seed, and --out writes the --json record beside the CSV
        argv = ("protocol", "rcir", "--n", "4", "--r", "2", "--trials", "100", "--seed", "7")
        code, out, _ = run_cli(capsys, *argv, "--json")
        assert code == 0
        record = json.loads(out)
        assert record["seed"] == 7 and record["outputs"]["trials"] == 100
        code, out, _ = run_cli(capsys, *argv, "--out", str(tmp_path / "mc.csv"))
        assert code == 0 and out == ""
        sidecar = json.loads((tmp_path / "mc.csv.record.json").read_text())
        assert sidecar.pop("wall_time_ms") >= 0 and record.pop("wall_time_ms") >= 0
        assert sidecar == record

    @pytest.mark.parametrize("command", [
        ["test", "--kind", "swap"],
        ["protocol", "rcir", "--exact"],
    ])
    def test_out_never_overwrites_the_instance(self, capsys, monkeypatch, tmp_path, command):
        path = tmp_path / "pair.json"
        path.write_text(json.dumps({"n": 2, "dim": 2, "partition": [[1], [2]]}))
        before = path.read_bytes()
        code, _, err = run_cli(capsys, *command, "--instance", str(path),
                               "--out", str(tmp_path / "pair.csv"))
        assert code == 0, err
        assert path.read_bytes() == before
        assert json.loads((tmp_path / "pair.csv.record.json").read_text())["command"] == command[0]
        loop = tmp_path / "loop.csv"
        loop.symlink_to(loop)
        code, _, err = run_cli(capsys, *command, "--instance", str(path), "--out", str(loop))
        assert code == 4 and "cannot write output" in err

        def refuse(*args, **kwargs):
            raise AssertionError("instance loaded before the --out check")

        monkeypatch.setattr("qsilab.cli._load", refuse)
        record_named = tmp_path / "run.record.json"
        record_named.write_bytes(before)
        # --out names the instance, or its record file does
        for instance, out in ((path, path), (record_named, tmp_path / "run")):
            code, printed, err = run_cli(capsys, *command, "--instance", str(instance),
                                         "--out", str(out))
            assert code == 2 and printed == ""
            assert err == f"error: --out {out} would overwrite the instance file {instance}\n"
            assert instance.read_bytes() == before


class TestProtocolCommand:
    def test_srs_exact_all_orthogonal(self, capsys, orth_triple):
        code, out, _ = run_cli(capsys, "protocol", "srs", "--instance", orth_triple,
                               "--m", "2", "--exact", "--seed", "1")
        assert code == 0
        (row,) = parse_csv(out)
        assert row["value_rational"] == "1/4"
        assert float(row["value_float"]) == pytest.approx(0.25)

    def test_rcir_exact_prime(self, capsys):
        code, out, _ = run_cli(capsys, "protocol", "rcir", "--n", "7", "--r", "3",
                               "--exact", "--seed", "1")
        assert code == 0
        (row,) = parse_csv(out)
        assert row["value_rational"] == "1/7"

    def test_rcir_monte_carlo_near_exact(self, capsys):
        code, out, _ = run_cli(capsys, "protocol", "rcir", "--n", "4", "--r", "2",
                               "--trials", "4000", "--seed", "1")
        assert code == 0
        (row,) = parse_csv(out)
        p_hat = float(row["p_hat"])
        assert abs(p_hat - 1 / 3) <= 5 * (1 / 3 * 2 / 3 / 4000) ** 0.5
        assert float(row["ci_lo"]) <= p_hat <= float(row["ci_hi"])

    def test_rcir_monte_carlo_at_n_1000_near_exact(self, capsys):
        argv = ("protocol", "rcir", "--n", "1000", "--r", "500", "--seed", "2")
        code, out, _ = run_cli(capsys, *argv, "--exact")
        assert code == 0
        exact = float(Fraction(parse_csv(out)[0]["value_rational"]))
        trials = 100_000
        code, out, _ = run_cli(capsys, *argv, "--trials", str(trials))
        assert code == 0
        p_hat = float(parse_csv(out)[0]["p_hat"])
        assert abs(p_hat - exact) <= 5 * (exact * (1 - exact) / trials) ** 0.5

    def test_rcir_monte_carlo_at_cap_stays_small(self):
        # a wrapper process reads its own child's peak RSS, which excludes this process's
        probe = (
            "import resource, subprocess, sys\n"
            "proc = subprocess.run(sys.argv[1:], stdout=subprocess.DEVNULL)\n"
            "print(proc.returncode, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", probe, sys.executable, "-m", "qsilab.cli", "protocol", "rcir",
             "--n", str(RCIR_EXACT_MAX_N), "--r", str(RCIR_EXACT_MAX_N // 2),
             "--trials", "4096", "--seed", "1"],
            capture_output=True,
            text=True,
            timeout=300,
        )
        code, peak_kb = map(int, proc.stdout.split())
        assert code == 0, proc.stderr
        assert peak_kb < 200 * 1024

    def test_rcir_exact_on_a_file_at_cap_stays_small(self, capsys, tmp_path):
        # a rotated two-block file of 10^4 states: its label row once took an
        # n x n Gram matrix and 2.3 GB
        n = RCIR_EXACT_MAX_N
        path = tmp_path / "rotated.json"
        path.write_text(json.dumps({"n": n, "dim": 2, "rotation_seed": 5, "partition": [
            list(range(1, n + 1, 2)), list(range(2, n + 1, 2))]}))
        proc = run_under_1gib("protocol", "rcir", "--exact", "--instance", str(path))
        assert proc.returncode == 0, proc.stderr
        _, out, _ = run_cli(capsys, "protocol", "rcir", "--exact", "--n", str(n), "--r", str(n // 2))
        assert parse_csv(proc.stdout)[0]["value_rational"] == parse_csv(out)[0]["value_rational"]

    def test_rcir_monte_carlo_above_cap_exits_3(self, capsys):
        code, _, err = run_cli(capsys, "protocol", "rcir", "--n", str(RCIR_EXACT_MAX_N + 1),
                               "--r", "1", "--trials", "10", "--seed", "1")
        assert code == 3
        assert f"capped at n={RCIR_EXACT_MAX_N}" in err

    def test_mc_is_seed_deterministic(self, capsys):
        _, out1, _ = run_cli(capsys, "protocol", "rcir", "--n", "4", "--r", "2",
                             "--trials", "500", "--seed", "3")
        _, out2, _ = run_cli(capsys, "protocol", "rcir", "--n", "4", "--r", "2",
                             "--trials", "500", "--seed", "3")
        assert out1 == out2
        # a run given no seed draws one, prints it, and replays from it
        argv = ("protocol", "rcir", "--n", "5", "--r", "2", "--trials", "500")
        _, drawn, _ = run_cli(capsys, *argv)
        seed = parse_csv(drawn)[0]["seed"]
        assert seed.isdecimal()
        _, replayed, _ = run_cli(capsys, *argv, "--seed", seed)
        assert replayed == drawn

    def test_srs_exact_without_partition_names_it(self, capsys, tmp_path):
        path = tmp_path / "unstructured3.json"
        states = [[[1, 0], [0, 0]], [[0.6, 0], [0.8, 0]], [[0, 0], [1, 0]]]
        path.write_text(json.dumps({"n": 3, "dim": 2, "states": states}))
        code, _, err = run_cli(capsys, "protocol", "srs", "--exact", "--instance", str(path))
        assert code == 2
        assert "promise" in err

    def test_srs_exact_at_round_cap_prints(self, capsys, orth_triple):
        code, out, _ = run_cli(capsys, "protocol", "srs", "--instance", orth_triple,
                               "--m", str(SRS_EXACT_MAX_M), "--exact", "--seed", "1")
        assert code == 0
        (row,) = parse_csv(out)
        tail = Fraction(1, 3 * 4 ** (SRS_EXACT_MAX_M - 1))
        assert row["value_rational"] == str(Fraction(1, 6) + tail)

    def test_srs_exact_above_round_cap_exits_3(self, capsys, orth_triple):
        code, _, err = run_cli(capsys, "protocol", "srs", "--instance", orth_triple,
                               "--m", str(SRS_EXACT_MAX_M + 1), "--exact", "--seed", "1")
        assert code == 3
        assert f"capped at m={SRS_EXACT_MAX_M}" in err

    def test_rcir_exact_above_cap_exits_3(self, capsys):
        code, _, err = run_cli(capsys, "protocol", "rcir", "--exact", "--n", "10001", "--r", "1")
        assert code == 3
        assert "capped" in err

    @pytest.mark.parametrize(
        "argv,code,flag",
        [
            (["rcir", "--n", "200000", "--r", "2", "--trials", "0"], 2, "--trials"),
            (["srs", "--instance", "x.json", "--m", "0"], 2, "--m"),
            (["srs", "--instance", "x.json", "--m", "0", "--exact"], 2, "--m"),
            (["rcir", "--n", "200000", "--r", "200000"], 2, "--r"),
            (["rcir", "--n", "5", "--r", "0", "--exact"], 2, "--r"),
            (["rcir", "--n", "200000", "--r", "2"], 3, "--n"),
            (["rcir", "--instance", "x.json", "--n", "50", "--r", "7", "--exact"], 2, "--n --r"),
            (["rcir", "--instance", "x.json", "--r", "7"], 2, "--r"),
        ],
    )
    def test_bounds_checked_before_any_work(self, capsys, monkeypatch, argv, code, flag):
        def refuse(*args, **kwargs):
            raise AssertionError("instance loaded or protocol run before the bounds check")

        for name in ("_load", "srs_exact", "rcir_exact", "mc_run"):
            monkeypatch.setattr(f"qsilab.cli.{name}", refuse)
        got, _, err = run_cli(capsys, "protocol", *argv, "--seed", "1")
        assert got == code
        assert flag in err

    def test_rcir_exact_and_monte_carlo_agree_on_three_blocks(self, capsys, tmp_path):
        path = tmp_path / "three_blocks.json"
        path.write_text(json.dumps({"n": 4, "dim": 3, "partition": [[1, 2], [3], [4]]}))
        code, out, _ = run_cli(capsys, "protocol", "rcir", "--instance", str(path), "--exact")
        assert code == 0
        (exact,) = parse_csv(out)
        assert exact["value_rational"] == "1/4"
        trials = 20_000
        code, out, _ = run_cli(capsys, "protocol", "rcir", "--instance", str(path),
                               "--trials", str(trials), "--seed", "11")
        assert code == 0
        (mc,) = parse_csv(out)
        p = float(exact["value_float"])
        assert abs(float(mc["p_hat"]) - p) <= 5 * math.sqrt(p * (1 - p) / trials)

    def test_rcir_exact_and_monte_carlo_accept_a_yes_instance(self, capsys, tmp_path):
        path = tmp_path / "yes.json"
        path.write_text(json.dumps({"n": 4, "dim": 2, "partition": [[1, 2, 3, 4]]}))
        code, out, _ = run_cli(capsys, "protocol", "rcir", "--instance", str(path), "--exact")
        assert code == 0
        assert parse_csv(out)[0]["value_rational"] == "1/1"
        code, out, _ = run_cli(capsys, "protocol", "rcir", "--instance", str(path),
                               "--trials", "200", "--seed", "3")
        assert code == 0
        assert parse_csv(out)[0]["p_hat"] == "1.0"

    def test_one_state_rcir_exits_2_in_both_modes(self, capsys, tmp_path):
        path = tmp_path / "one.json"
        path.write_text(json.dumps({"n": 1, "dim": 1, "partition": [[1]]}))
        for mode in (["--exact"], ["--trials", "10"]):
            code, out, err = run_cli(capsys, "protocol", "rcir", "--instance", str(path), *mode,
                                     "--seed", "1")
            assert code == 2 and out == ""
            assert "at least 2 states" in err

    @pytest.mark.parametrize(
        "blocks",
        [[[1, 2, 3]], [[1, 2], [3]], [[1, 3], [2]], [[2, 3], [1]], [[1], [2], [3]],
         [[1, 3], [2], [4]]],
    )
    def test_partition_and_states_forms_give_one_value(self, capsys, tmp_path, blocks):
        # the same instance as its partition and as its unrotated basis states, no partition
        n = sum(map(len, blocks))
        label = {i: k for k, block in enumerate(blocks) for i in block}
        states = [[[float(label[i] == j), 0.0] for j in range(3)] for i in range(1, n + 1)]
        part, bare = tmp_path / "partition.json", tmp_path / "states.json"
        part.write_text(json.dumps({"n": n, "dim": 3, "partition": blocks}))
        bare.write_text(json.dumps({"n": n, "dim": 3, "states": states}))
        runs = [["rcir"]] + [["srs", "--m", str(m)] for m in range(1, 5) if n == 3]
        trials = 20_000
        for run in runs:
            values = set()
            for path in (part, bare):
                code, out, err = run_cli(capsys, "protocol", *run, "--instance", str(path),
                                         "--exact")
                assert code == 0, err
                values.add(parse_csv(out)[0]["value_rational"])
            (value,) = values
            p = float(Fraction(value))
            for path in (part, bare):
                code, out, err = run_cli(capsys, "protocol", *run, "--instance", str(path),
                                         "--trials", str(trials), "--seed", "5")
                assert code == 0, err
                p_hat = float(parse_csv(out)[0]["p_hat"])
                assert abs(p_hat - p) <= 5 * math.sqrt(p * (1 - p) / trials), (run, path.name)

    def test_canonical_policy_needs_exact(self, capsys, monkeypatch, orth_triple):
        def refuse(*args, **kwargs):
            raise AssertionError("instance loaded before the policy check")

        with monkeypatch.context() as patch:
            patch.setattr("qsilab.cli._load", refuse)
            code, _, err = run_cli(capsys, "protocol", "srs", "--instance", orth_triple,
                                   "--m", "2", "--trials", "10", "--policy", "canonical")
        assert code == 2
        assert "--policy" in err
        code, out, _ = run_cli(capsys, "protocol", "srs", "--instance", orth_triple,
                               "--m", "2", "--exact", "--policy", "canonical")
        assert code == 0
        (row,) = parse_csv(out)
        assert row["policy"] == "canonical" and row["value_rational"] == "1/4"

    def test_missing_inputs_exit_2(self, capsys):
        with pytest.raises(SystemExit) as refused:  # srs reads its states from a file
            main(["protocol", "srs", "--exact"])
        assert refused.value.code == 2
        assert capsys.readouterr().err.endswith(
            "error: the following arguments are required: --instance\n")
        code, _, err = run_cli(capsys, "protocol", "rcir", "--exact")
        assert code == 2
        assert err == "error: protocol rcir needs --instance, or --n and --r\n"
        code, _, _ = run_cli(capsys, "protocol", "rcir", "--n", "4", "--r", "4", "--exact")
        assert code == 2


class TestSweepCommand:
    def test_perm_soundness_rows(self, capsys, tmp_path):
        out_file = tmp_path / "perm.csv"
        code, _, _ = run_cli(capsys, "sweep", "perm-soundness", "--n-min", "2",
                             "--n-max", "6", "--out", str(out_file))
        assert code == 0
        rows = parse_csv(out_file.read_text())
        assert len(rows) == sum(n - 1 for n in range(2, 7))
        for row in rows:
            n, l = int(row["n"]), int(row["l"])
            num, den = row["soundness_rational"].split("/")
            import math

            assert Fraction(int(num), int(den)) == Fraction(
                math.factorial(l) * math.factorial(n - l), math.factorial(n)
            )
        record = json.loads((tmp_path / "perm.csv.record.json").read_text())
        assert record["command"] == "sweep"
        assert record["outputs"]["rows"] == len(rows)

    def test_rerun_is_byte_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(capsys, "sweep", "rcir-vs-bound", "--n-min", "2", "--n-max", "10",
                "--out", str(a))
        run_cli(capsys, "sweep", "rcir-vs-bound", "--n-min", "2", "--n-max", "10",
                "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_rcir_sweep_respects_bound(self, capsys, tmp_path):
        out_file = tmp_path / "rcir.csv"
        run_cli(capsys, "sweep", "rcir-vs-bound", "--n-min", "2", "--n-max", "12",
                "--out", str(out_file))
        rows = parse_csv(out_file.read_text())
        assert rows and all(row["within_bound"] == "true" for row in rows)
        for row in rows:
            assert float(row["exact_float"]) <= float(row["bound_float"]) + 1e-15

    def test_srs_sweep_bound_column(self, capsys, tmp_path):
        out_file = tmp_path / "srs.csv"
        run_cli(capsys, "sweep", "srs-vs-m", "--m-max", "5", "--out", str(out_file))
        rows = parse_csv(out_file.read_text())
        assert len(rows) == 5
        for row in rows:
            assert row["within_bound"] == "true"
            assert float(row["two_identical_float"]) <= float(row["bound_float"])

    def test_srs_sweep_at_round_cap(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "srs-vs-m", "--m-max", str(SRS_EXACT_MAX_M))
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == SRS_EXACT_MAX_M
        tail = Fraction(1, 3 * 4 ** (SRS_EXACT_MAX_M - 1))
        assert rows[-1]["all_orthogonal_rational"] == str(Fraction(1, 6) + tail)
        assert rows[-1]["within_bound"] == "true"

    def test_srs_sweep_above_round_cap_exits_3_before_any_row(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a row was computed before the cap check")

        monkeypatch.setattr("qsilab.cli.srs_exact", refuse)
        code, _, err = run_cli(capsys, "sweep", "srs-vs-m",
                               "--m-max", str(SRS_EXACT_MAX_M + 1))
        assert code == 3
        assert f"--m-max {SRS_EXACT_MAX_M + 1}" in err

    @pytest.mark.parametrize(
        "argv,header",
        [
            (["perm-soundness", "--n-max", "3"],
             "n,l,soundness_rational,soundness_float,one_over_n_float"),
            (["rcir-vs-bound", "--n-max", "3"],
             "n,r,exact_rational,exact_float,bound_rational,bound_float,loose_float,"
             "within_bound"),
            (["srs-vs-m", "--m-max", "1"],
             "m,two_identical_rational,two_identical_float,all_orthogonal_rational,"
             "all_orthogonal_float,bound_rational,bound_float,within_bound"),
            (["qbounds", "--n-max", "4"],
             "n,r,s,q_rational,q_float,case,case_bound_rational,case_bound_float,holds"),
        ],
    )
    def test_sweep_header_order(self, capsys, argv, header):
        # DictReader ignores column order, so the header line is pinned as text
        code, out, _ = run_cli(capsys, "sweep", *argv)
        assert code == 0
        assert out.splitlines()[0] == header + ",run_id,seed"

    def test_qbounds_adds_no_rows_below_n_4(self, capsys):
        # for n <= 3 no divisor s >= 2 of r <= n/2 exists
        def rows(n_min):
            _, out, _ = run_cli(capsys, "sweep", "qbounds", "--n-min", n_min, "--n-max", "12")
            return [dict(row, run_id=None) for row in parse_csv(out)]

        assert rows("1") == rows("4") != []

    def test_perm_soundness_above_n_cap_exits_3(self, capsys):
        n = str(RCIR_EXACT_MAX_N + 1)
        code, out, err = run_cli(capsys, "sweep", "perm-soundness", "--n-min", n, "--n-max", n)
        assert code == 3
        assert out == "" and f"capped at n={RCIR_EXACT_MAX_N}" in err

    @pytest.mark.parametrize("target,n_min", [
        ("perm-soundness", 9990), ("rcir-vs-bound", 9999), ("qbounds", 9999),
    ])
    def test_n_grid_above_cap_exits_3_before_any_row(self, capsys, monkeypatch, target, n_min):
        # every row below the cap once took 13-117 s to build before the cap was refused
        def refuse(*args, **kwargs):
            raise AssertionError("a row was computed before the cap check")

        for name in ("two_block_soundness", "rcir_exact", "q_value"):
            monkeypatch.setattr(f"qsilab.cli.{name}", refuse)
        n_max = str(RCIR_EXACT_MAX_N + 1)
        started = time.perf_counter()
        code, out, err = run_cli(capsys, "sweep", target, "--n-min", str(n_min), "--n-max", n_max)
        assert time.perf_counter() - started < 1.0
        assert code == 3 and out == ""
        assert err == f"error: --n-max {n_max}: sweep {target} capped at n={RCIR_EXACT_MAX_N}\n"

    def test_qbounds_sweep(self, capsys, tmp_path):
        out_file = tmp_path / "q.csv"
        run_cli(capsys, "sweep", "qbounds", "--n-min", "4", "--n-max", "16",
                "--out", str(out_file))
        rows = parse_csv(out_file.read_text())
        assert rows and all(row["holds"] == "true" for row in rows)
        assert all(row["case"] != "uncovered" for row in rows)

    @pytest.mark.parametrize(
        "argv,flags",
        [
            (["perm-soundness", "--n-min", "5", "--n-max", "2"], "--n-min 5 --n-max 2"),
            (["srs-vs-m", "--m-max", "0"], "--m-max 0"),
            (["qbounds", "--n-max", "3"], "--n-min 2 --n-max 3"),
        ],
    )
    def test_empty_grid_exits_2_naming_its_flags(self, capsys, argv, flags):
        code, out, err = run_cli(capsys, "sweep", *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: sweep {argv[0]} has no rows for {flags}\n"


class TestBoundsCommand:
    def test_two_block(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "two-block", "--n", "6", "--l", "3")
        assert code == 0
        (row,) = parse_csv(out)
        assert row["value_rational"] == "1/20"

    def test_eq2(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "eq2", "--n", "4", "--r", "2")
        assert code == 0
        (row,) = parse_csv(out)
        assert row["value_rational"] == "5/12"

    def test_q_with_case(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "q", "--n", "12", "--r", "6", "--s", "3")
        assert code == 0
        (row,) = parse_csv(out)
        assert row["value_rational"] == "1/616"
        assert row["case"] == "s=r/2"

    @pytest.mark.parametrize(
        "argv",
        [
            ["eq2", "--r", "5000"],
            ["q", "--r", "5000", "--s", "5000"],
            ["two-block", "--l", "5000"],
        ],
    )
    def test_exact_bounds_at_n_cap_print(self, capsys, argv):
        code, out, _ = run_cli(capsys, "bounds", *argv, "--n", str(RCIR_EXACT_MAX_N))
        assert code == 0
        (row,) = parse_csv(out)
        assert Fraction(row["value_rational"]) > 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["eq2", "--r", "5000"],
            ["q", "--r", "73", "--s", "73"],
            ["two-block", "--l", "1"],
        ],
    )
    def test_exact_bounds_above_n_cap_exit_3(self, capsys, argv):
        code, _, err = run_cli(capsys, "bounds", *argv, "--n", str(RCIR_EXACT_MAX_N + 1))
        assert code == 3
        assert f"capped at n={RCIR_EXACT_MAX_N}" in err

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["two-block", "--l", "2"], "--n"),
            (["two-block", "--n", "5"], "--l"),
            (["q", "--r", "6", "--s", "3"], "--n"),
            (["q", "--n", "12", "--s", "3"], "--r"),
            (["q", "--n", "12", "--r", "6"], "--s"),
            (["eq2", "--r", "2"], "--n"),
            (["eq2", "--n", "4"], "--r"),
            (["basel"], "--n"),
        ],
    )
    def test_missing_flag_exits_2_naming_it(self, capsys, argv, flag):
        with pytest.raises(SystemExit) as refused:
            main(["bounds", *argv])
        assert refused.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(f"error: the following arguments are required: {flag}\n")

    def test_gap(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "gap")
        assert code == 0
        (row,) = parse_csv(out)
        assert float(row["trace_dist"]) == pytest.approx(0.5, abs=1e-10)
        assert row["achieves_lower_bound"] == "true"

    def test_basel(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "basel", "--n", "6")
        assert code == 0
        (row,) = parse_csv(out)
        assert float(row["pi2_over_6n"]) == pytest.approx(0.27416, abs=5e-6)


class TestMain:
    def test_package_exports_what_the_benchmark_worker_reads(self, orth_pair):
        # qsibench/worker.py calls these three through the package top level
        import qsilab
        from qsilab.bounds import ps_lower_bound
        from qsilab.instances import load_instance

        assert qsilab.load_instance is load_instance
        assert qsilab.ps_lower_bound is ps_lower_bound
        assert qsilab.__version__ == "0.1.0"
        assert qsilab.ps_lower_bound(qsilab.load_instance(orth_pair)) == 0.5

    @pytest.mark.parametrize(
        "argv",
        [
            ["test", "--kind", "swap", "--instance", "x.json"],
            ["protocol", "rcir", "--n", "4", "--r", "2", "--trials", "10"],
            ["sweep", "perm-soundness"],
            ["bounds", "two-block", "--n", "6", "--l", "3"],
            ["selftest"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_negative_seed_exits_2_naming_it(self, capsys, monkeypatch, argv):
        def refuse(*args, **kwargs):
            raise AssertionError("work started before the seed check")

        for name in ("_load", "srs_exact", "rcir_exact", "mc_run", "two_block_soundness"):
            monkeypatch.setattr(f"qsilab.cli.{name}", refuse)
        monkeypatch.setattr("qsilab.selftest.run_all", refuse)
        if argv[0] != "protocol":
            # only protocol draws anything and takes --seed: the parser refuses it elsewhere
            with pytest.raises(SystemExit) as refused:
                main([*argv, "--seed", "-1"])
            assert refused.value.code == 2
            assert capsys.readouterr().err.endswith(
                "error: unrecognized arguments: --seed -1\n"
            )
            return
        code, out, err = run_cli(capsys, *argv, "--seed", "-1")
        assert code == 2
        assert out == ""
        assert err == "error: --seed must be non-negative, got -1\n"

    @pytest.mark.parametrize(
        "leaf,flags",
        [
            (["selftest"], ["--out", "F"]),
            (["selftest"], ["--json"]),
            (["selftest"], ["--seed", "3"]),
            # flags that a sibling leaf takes
            (["protocol", "rcir", "--n", "6", "--r", "2", "--exact"], ["--m", "3"]),
            (["protocol", "srs", "--instance", "x.json", "--exact"], ["--r", "1"]),
            (["sweep", "qbounds"], ["--m-max", "9"]),
            (["bounds", "gap"], ["--n", "4"]),
        ],
    )
    def test_leaf_refuses_flags_it_does_not_take(self, capsys, monkeypatch, tmp_path, leaf,
                                                 flags):
        def refuse(*args, **kwargs):
            raise AssertionError("a run started with a flag it ignores")

        monkeypatch.setattr("qsilab.selftest.run_all", refuse)
        for command in cli._RUNNERS:
            monkeypatch.setitem(cli._RUNNERS, command, refuse)
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as refused:
            main([*leaf, *flags])
        assert refused.value.code == 2
        assert capsys.readouterr().err.endswith(
            f"error: unrecognized arguments: {' '.join(flags)}\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["test", "--kind", "swap", "--instance", "PAIR", "--mode", "formula"],
            ["protocol", "srs", "--instance", "TRIPLE", "--m", "3", "--policy", "canonical",
             "--exact", "--trials", "5", "--seed", "1"],
            ["protocol", "srs", "--instance", "TRIPLE", "--m", "2", "--trials", "50"],
            ["protocol", "rcir", "--n", "6", "--r", "2", "--exact"],
            ["protocol", "rcir", "--instance", "TRIPLE", "--trials", "50", "--seed", "1"],
            ["sweep", "perm-soundness"],
            ["sweep", "rcir-vs-bound", "--n-max", "5"],
            ["sweep", "srs-vs-m", "--m-max", "2"],
            ["sweep", "qbounds", "--n-min", "4"],
            ["bounds", "two-block", "--n", "5", "--l", "2"],
            ["bounds", "q", "--n", "12", "--r", "6", "--s", "3"],
            ["bounds", "eq2", "--n", "4", "--r", "2"],
            ["bounds", "basel", "--n", "6"],
            ["bounds", "gap"],
        ],
        ids=" ".join,
    )
    def test_params_hold_only_what_the_run_read(self, capsys, monkeypatch, orth_pair,
                                                orth_triple, argv):
        argv = [{"PAIR": orth_pair, "TRIPLE": orth_triple}.get(arg, arg) for arg in argv]
        read: set[str] = set()
        runner = cli._RUNNERS[argv[0]]
        monkeypatch.setitem(cli._RUNNERS, argv[0], lambda args: runner(ReadRecorder(args, read)))
        code, out, err = run_cli(capsys, *argv, "--json")
        assert code == 0, err
        params = json.loads(out)["params"]
        # an exact run echoes --trials (and --seed, which params leave out) unread
        echoed = {"trials"} if "--exact" in argv else set()
        assert set(params) - echoed <= read, sorted(set(params) - read)

    @pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
    def test_benchmark_ops_pass_in_process(self, capsys, monkeypatch, tmp_path, name):
        # one pass of the seed-1 op list, run the way qsibench/worker.py runs it
        (tmp_path / "work").mkdir()
        wl = workloads.build(name, 1, tmp_path / "work", tmp_path)
        monkeypatch.chdir(tmp_path)
        failures = []
        for op in wl.ops:
            try:
                if op.call == "cli":
                    code = main(op.argv)
                    out = capsys.readouterr().out
                else:
                    code, out = 0, repr(qsilab.ps_lower_bound(qsilab.load_instance(op.argv[0])))
            except SystemExit as stop:
                code, out = stop.code, capsys.readouterr().out
            problems = op.check(out) if code == 0 else []
            if code != 0 or problems:
                failures.append((op.argv, code, problems))
        assert wl.ops and failures == []

    def test_failing_selftest_criterion_exits_1(self, capsys, monkeypatch):
        def failing():
            return selftest.CriterionResult(1, "always fails", False, "forced failure")

        monkeypatch.setattr(selftest, "ALL_CRITERIA", (failing,))
        code, out, _ = run_cli(capsys, "selftest")
        assert code == 1
        assert out == "criterion 1: FAIL - always fails [forced failure]\n"

    def test_parser_reused_after_bad_argv(self, capsys):
        good = ["protocol", "rcir", "--n", "4", "--r", "2", "--trials", "500", "--seed", "3"]
        parser = _build_parser()
        code, first, _ = run_cli(capsys, *good)
        assert code == 0
        with pytest.raises(SystemExit) as bad:
            main(["protocol", "rcir", "--n", "four"])
        assert bad.value.code == 2
        assert "--n" in capsys.readouterr().err
        code, again, _ = run_cli(capsys, *good)
        assert code == 0
        assert again == first
        with pytest.raises(SystemExit) as shown:
            main(["--help"])
        assert shown.value.code == 0
        assert "usage: qsilab" in capsys.readouterr().out
        assert _build_parser() is parser

    def test_parser_not_built_at_import(self):
        probe = "import qsilab.cli as c; print(c._build_parser.cache_info().currsize)"
        done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                              check=True)
        assert done.stdout == "0\n"

    def test_selftest_not_imported_with_the_cli(self):
        probe = "import sys, qsilab.cli; print('qsilab.selftest' in sys.modules)"
        done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                              check=True)
        assert done.stdout == "False\n"

"""End-to-end tests of the command-line interface."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from qparity import states
from qparity.cli import load_amplitude_file, main, write_amplitude_file
from qparity.linalg import Ket
from qparity.reports import verify_checksum


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSimulate:
    def test_table_output(self, capsys):
        code, out, _ = run_cli(capsys, ["simulate", "-n", "3", "-d", "3"])
        assert code == 0
        assert "1/4" in out and "3/8" in out
        assert "GHZ" in out
        assert "W (up to bitflip)" in out

    def test_json_output_checksummed(self, capsys):
        code, out, _ = run_cli(capsys, ["simulate", "-n", "3", "-d", "3", "--json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == 1
        assert payload["command"] == "simulate"
        assert payload["config"]["qubits"] == 3
        assert len(payload["outcomes"]) == 3
        assert verify_checksum(payload)
        parities = [o["parity"] for o in payload["outcomes"]]
        assert parities == [0, 1, 2]
        ghz_branch = payload["outcomes"][0]
        assert ghz_branch["classification"] == "GHZ"
        assert ghz_branch["probability_exact"] == "1/4"
        assert ghz_branch["dicke_weights"] == {"0": 1, "3": 1}

    @pytest.mark.parametrize("extra", [[], ["--json"]], ids=["text", "json"])
    def test_each_branch_decomposed_once(self, capsys, monkeypatch, extra):
        # n=9, d=7 heralds named branches (G_9, Dicke) that classify matches
        # before decomposing and DickeSum branches that it decomposes itself.
        decompose = states.dicke_decompose
        calls = []

        def counted(state, *args, **kwargs):
            calls.append(state)
            return decompose(state, *args, **kwargs)

        monkeypatch.setattr(states, "dicke_decompose", counted)
        code, _, _ = run_cli(capsys, ["simulate", "-n", "9", "-d", "7", *extra])
        assert code == 0
        assert len(calls) == 7

    def test_json_runs_are_byte_identical(self, capsys):
        _, first, _ = run_cli(capsys, ["simulate", "-n", "4", "-d", "3", "--json"])
        _, second, _ = run_cli(capsys, ["simulate", "-n", "4", "-d", "3", "--json"])
        assert first == second

    def test_subprocess_matches_in_process(self, capsys):
        argv = ["simulate", "-n", "2", "-d", "2", "--json"]
        _, expected, _ = run_cli(capsys, argv)
        proc = subprocess.run(
            [sys.executable, "-m", "qparity", *argv],
            capture_output=True,
            text=True,
            check=True,
        )
        assert proc.stdout == expected

    def test_out_flag_writes_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, ["simulate", "-n", "2", "-d", "2", "--json", "--out", str(target)]
        )
        assert code == 0
        assert out == ""
        assert verify_checksum(json.loads(target.read_text()))

    def test_file_input(self, capsys, tmp_path):
        path = tmp_path / "bell.txt"
        amps = np.array([0.0, 1.0, 1.0, 0.0]) / math.sqrt(2)
        write_amplitude_file(path, Ket(amps, (2, 2), normalized=True))
        code, out, _ = run_cli(capsys, ["simulate", "-d", "2", "--input", str(path)])
        assert code == 0
        # (|01> + |10>)/sqrt(2) is the two-qubit single-excitation state:
        # parity 1 with certainty.
        assert "(zero probability)" in out
        code_json, out_json, _ = run_cli(
            capsys, ["simulate", "-d", "2", "--input", str(path), "--json"]
        )
        payload = json.loads(out_json)
        branches = {o["parity"]: o for o in payload["outcomes"]}
        assert branches[0]["zero_probability"] is True
        assert branches[1]["probability"] == "1"

    def test_qubit_count_conflict(self, capsys, tmp_path):
        path = tmp_path / "bell.txt"
        amps = np.array([0.0, 1.0, 1.0, 0.0]) / math.sqrt(2)
        write_amplitude_file(path, Ket(amps, (2, 2), normalized=True))
        code, _, err = run_cli(
            capsys, ["simulate", "-n", "3", "-d", "2", "--input", str(path)]
        )
        assert code == 2
        assert "disagrees" in err

    def test_plus_requires_qubits(self, capsys):
        code, _, err = run_cli(capsys, ["simulate", "-d", "3"])
        assert code == 2
        assert "--qubits" in err

    def test_malformed_file(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("dims: 2\n0.5 0\n")
        code, _, err = run_cli(capsys, ["simulate", "-d", "2", "--input", str(path)])
        assert code == 2
        assert "amplitude lines" in err

    def test_nan_amplitude_rejected(self, capsys, tmp_path):
        path = tmp_path / "nan.txt"
        path.write_text("dims: 2\nnan 0\n1 0\n")
        code, out, err = run_cli(capsys, ["simulate", "-d", "2", "--input", str(path)])
        assert code == 2
        assert out == ""
        assert "norm" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys, ["simulate", "-d", "2", "--input", str(tmp_path / "nope.txt")]
        )
        assert code == 2

    def test_resource_cap_exit_code(self, capsys, monkeypatch):
        monkeypatch.setenv("QPARITY_MAX_QUBITS", "4")
        code, _, err = run_cli(capsys, ["simulate", "-n", "5", "-d", "2"])
        assert code == 3
        assert "limited" in err

    def test_out_of_memory_exit_code(self, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr("qparity.cli.run_module", exhausted)
        code, out, err = run_cli(capsys, ["simulate", "-n", "3", "-d", "2"])
        assert code == 3
        assert out == ""
        assert err.startswith("error: out of memory")
        assert "Traceback" not in err

    def test_unknown_coupling_rejected(self, capsys):
        code, _, _ = run_cli(capsys, ["simulate", "-n", "2", "-d", "2", "--coupling", "weird"])
        assert code == 2


class TestAmplitudeFileFormat:
    def test_round_trip(self, tmp_path, rng):
        v = rng.normal(size=8) + 1j * rng.normal(size=8)
        v /= np.linalg.norm(v)
        state = Ket(v, (2, 2, 2), normalized=True)
        path = tmp_path / "state.txt"
        write_amplitude_file(path, state)
        loaded = load_amplitude_file(path)
        assert loaded.factor_dims == (2, 2, 2)
        assert np.allclose(loaded.amps, state.amps, atol=1e-15)

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "state.txt"
        path.write_text(
            "# a comment\n\ndims: 2\n0.7071067811865476 0  # first\n\n0 0.7071067811865476\n"
        )
        loaded = load_amplitude_file(path)
        assert np.allclose(loaded.amps, [2**-0.5, 0.5j * 2**0.5], atol=1e-12)

    def test_norm_enforced(self, tmp_path):
        path = tmp_path / "state.txt"
        path.write_text("dims: 2\n1 0\n1 0\n")
        with pytest.raises(ValueError, match="norm"):
            load_amplitude_file(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "state.txt"
        path.write_text("sizes: 2\n1 0\n0 0\n")
        with pytest.raises(ValueError, match="dims"):
            load_amplitude_file(path)

    def test_non_numeric_line(self, tmp_path):
        path = tmp_path / "state.txt"
        path.write_text("dims: 2\n1 0\nx y\n")
        with pytest.raises(ValueError, match="not numeric"):
            load_amplitude_file(path)


class TestSolve:
    def test_feasible_roots(self, capsys):
        code, out, _ = run_cli(capsys, ["solve", "--phases", "roots:4"])
        assert code == 0
        assert "feasible: yes" in out
        assert out.count("0.25") >= 4
        assert "orbit Gram deviation" in out

    def test_infeasible_pair(self, capsys):
        code, out, _ = run_cli(capsys, ["solve", "--phases", "0,0.1"])
        assert code == 1
        assert "feasible: no" in out

    def test_degenerate_constraints_reported(self, capsys):
        phases = f"0,0,{math.pi},{math.pi}"
        code, out, _ = run_cli(capsys, ["solve", "--phases", phases])
        assert code == 0
        assert "eigenspace (0, 1): total weight 0.5" in out
        assert "eigenspace (2, 3): total weight 0.5" in out

    def test_json_payload(self, capsys):
        code, out, _ = run_cli(capsys, ["solve", "--phases", "roots:3", "--json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["feasible"] is True
        assert payload["distinct_eigenvalues"] == 3
        assert payload["squared_amps"] == ["0.333333333333", "0.333333333333", "0.333333333333"]
        assert verify_checksum(payload)

    def test_json_infeasible_exit(self, capsys):
        code, out, _ = run_cli(capsys, ["solve", "--phases", "0,0.2", "--json"])
        assert code == 1
        assert json.loads(out)["feasible"] is False

    def test_malformed_phase_list(self, capsys):
        code, _, err = run_cli(capsys, ["solve", "--phases", "a,b"])
        assert code == 2
        assert "parse" in err
        code, _, _ = run_cli(capsys, ["solve", "--phases", "roots:x"])
        assert code == 2

    def test_single_phase_rejected(self, capsys):
        code, _, _ = run_cli(capsys, ["solve", "--phases", "0.5"])
        assert code == 2


class TestVerify:
    def test_solver_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, ["verify", "--suite", "solver"])
        assert code == 0
        assert "PASS" in out
        assert "FAIL" not in out
        assert "checks passed" in out

    def test_all_suites_pass(self, capsys):
        code, out, _ = run_cli(capsys, ["verify", "--suite", "all"])
        assert code == 0
        assert "FAIL" not in out

    def test_unknown_suite_rejected(self, capsys):
        code, _, _ = run_cli(capsys, ["verify", "--suite", "nonsense"])
        assert code == 2


class TestTable:
    def test_w_compare_row(self, capsys):
        code, out, _ = run_cli(capsys, ["table", "--family", "w-compare", "--max-n", "5"])
        assert code == 0
        row = next(line for line in out.splitlines() if line.strip().startswith("5"))
        for token in ["5/16", "5/256", "16/1", "8/1", "yes"]:
            assert token in row

    def test_halfdicke_flags_self_dual(self, capsys):
        code, out, _ = run_cli(capsys, ["table", "--family", "halfdicke-scaling", "--max-n", "8"])
        assert code == 0
        assert "double-counts" in out
        assert "overstates this probability by a factor of 2" in out
        # k=2 row: exact 3/8 vs asymptote 1/sqrt(2 pi).
        row = next(line for line in out.splitlines() if line.strip().startswith("2"))
        assert "3/8" in row

    def test_dicke_marks_self_dual_classes(self, capsys):
        code, out, _ = run_cli(capsys, ["table", "--family", "dicke", "--max-n", "4"])
        assert code == 0
        assert "self-dual class" in out

    def test_json_rows(self, capsys):
        code, out, _ = run_cli(
            capsys, ["table", "--family", "halfdicke-scaling", "--max-n", "6", "--json"]
        )
        payload = json.loads(out)
        assert verify_checksum(payload)
        by_k = {row["k"]: row for row in payload["rows"]}
        assert by_k[2]["probability_exact"] == "3/8"
        assert by_k[2]["self_dual"] is True
        pair = float(by_k[3]["pair_form"])
        assert pair == pytest.approx(2 / math.sqrt(math.pi * 3), rel=1e-9)

    def test_max_n_bounds(self, capsys):
        assert run_cli(capsys, ["table", "--family", "dicke", "--max-n", "1"])[0] == 2
        assert run_cli(capsys, ["table", "--family", "dicke", "--max-n", "25"])[0] == 2

    def test_unknown_family(self, capsys):
        assert run_cli(capsys, ["table", "--family", "foo"])[0] == 2


class TestSample:
    def test_deterministic_given_seed(self, capsys):
        argv = ["sample", "-n", "3", "-d", "3", "--shots", "50", "--seed", "11"]
        _, first, _ = run_cli(capsys, argv)
        _, second, _ = run_cli(capsys, argv)
        assert first == second
        values = {int(tok) for tok in first.split()}
        assert values <= {0, 1, 2}

    def test_seed_changes_stream(self, capsys):
        base = ["sample", "-n", "3", "-d", "3", "--shots", "200"]
        _, a, _ = run_cli(capsys, base + ["--seed", "1"])
        _, b, _ = run_cli(capsys, base + ["--seed", "2"])
        assert a != b

    def test_zero_shots(self, capsys):
        code, out, _ = run_cli(capsys, ["sample", "-n", "2", "-d", "2", "--shots", "0"])
        assert code == 0
        assert out == ""

    def test_negative_shots(self, capsys):
        code, _, _ = run_cli(capsys, ["sample", "-n", "2", "-d", "2", "--shots", "-1"])
        assert code == 2

    def test_frequencies_match_distribution(self, capsys):
        shots = 100_000
        code, out, _ = run_cli(
            capsys, ["sample", "-n", "1", "-d", "2", "--shots", str(shots), "--seed", "3"]
        )
        assert code == 0
        draws = np.array([int(tok) for tok in out.split()])
        freq = float(np.mean(draws == 0))
        sigma = math.sqrt(0.25 / shots)
        assert abs(freq - 0.5) < 5 * sigma


class TestTopLevel:
    def test_no_command_is_usage_error(self, capsys):
        assert run_cli(capsys, [])[0] == 2

    def test_help_exits_cleanly(self, capsys):
        assert run_cli(capsys, ["--help"])[0] == 0

    def test_checksum_detects_tampering(self, capsys):
        _, out, _ = run_cli(capsys, ["solve", "--phases", "roots:3", "--json"])
        payload = json.loads(out)
        payload["feasible"] = False
        assert not verify_checksum(payload)

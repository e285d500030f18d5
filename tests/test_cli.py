"""End-to-end tests of the command-line interface."""

import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qparity import cli, module, solver, states, verify
from qparity.cli import load_amplitude_file, main, write_amplitude_file
from qparity.linalg import Ket, plus_state, squared_norm
from qparity.module import outcome_distribution
from qparity.reports import verify_checksum
from qparity.verify import Check

from conftest import random_ket_amps


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

    def test_shift_reports_computational_readout(self, capsys):
        # The golden reports are phase runs, so only this pins the shift readout name.
        argv = ["simulate", "-n", "3", "-d", "3", "--coupling", "shift"]
        _, text, _ = run_cli(capsys, argv)
        assert "measurement basis: computational" in text
        _, out, _ = run_cli(capsys, argv + ["--json"])
        assert '"measurement_basis":"computational"' in out

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

    @pytest.mark.parametrize("family", ["random", "w5", "dicke6"])
    def test_file_off_the_chain_runs_at_a_d_whose_fourier_kets_fail_their_norm_check(self, capsys, tmp_path, rng, family):
        # Only the per-excitation chain reads Fourier rows, and only |+>^n up to sign takes
        # it, so a random register, W_5 and D(6, 3) run at d = 140 without them; W_5 and
        # D(6, 3) exited 2 here while they took the chain.
        path = tmp_path / f"{family}.txt"
        register = {"random": Ket(random_ket_amps(rng, 8), (2, 2, 2), normalized=True), "w5": states.w(5), "dicke6": states.dicke(6, 3)}
        write_amplitude_file(path, register[family])
        code, out, err = run_cli(capsys, ["simulate", "-d", "140", "--input", str(path), "--json"])
        assert code == 0, err
        payload = json.loads(out)
        assert verify_checksum(payload) and len(payload["outcomes"]) == 140

    @pytest.mark.parametrize("d", [140, 400, 1024])
    def test_chain_runs_at_a_d_whose_fourier_kets_fail_their_norm_check(self, capsys, monkeypatch, d):
        # fourier_ket(140, m) misses its own norm check by rounding, and |+>^3 exited 2 here.
        # The chain's readout is the same expression without that check, up to d = 1024, the
        # largest readout the default cap admits.
        monkeypatch.delenv("QPARITY_MAX_QUBITS", raising=False)
        code, out, err = run_cli(capsys, ["simulate", "-n", "3", "-d", str(d), "--json"])
        assert code == 0, err
        payload = json.loads(out)
        assert verify_checksum(payload) and len(payload["outcomes"]) == d

    def test_chain_readout_over_the_cap_is_refused_by_its_bytes(self, capsys, monkeypatch):
        # The d x d readout is counted before the chain builds it or its d branches.
        monkeypatch.delenv("QPARITY_MAX_QUBITS", raising=False)
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, ["simulate", "-n", "3", "-d", "1025"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3 and out == ""
        assert err == (
            "error: statevector path limited to 16777216 bytes (20 qubits); the Fourier readout "
            "of a 1025-level ancilla needs 16810000 bytes as a 1025 x 1025 complex matrix\n"
        )
        assert peak < 1 << 20

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
        assert err == "error: statevector path limited to 256 bytes (4 qubits); 5 qubits need 512 bytes\n"

    @pytest.mark.parametrize("qubits", [20000, 10**20])
    def test_huge_register_is_refused_with_its_bytes_as_a_power_of_two(self, capsys, monkeypatch, qubits):
        # 16 << qubits is never built: at 20000 qubits it has too many digits to print, and
        # at 10**20 it cannot exist.
        monkeypatch.delenv("QPARITY_MAX_QUBITS", raising=False)
        code, out, err = run_cli(capsys, ["simulate", "-n", str(qubits), "-d", "3"])
        assert code == 3 and out == ""
        assert err == f"error: statevector path limited to 16777216 bytes (20 qubits); {qubits} qubits need 2^{qubits + 4} bytes\n"

    def test_w18_file_runs_with_the_shift_coupling(self, capsys, tmp_path):
        # Its heralded branches are each divided by their own squared norm; divided by the
        # class histogram's probability, one missed its norm check by 1.2e-12 at d = 5.
        path = tmp_path / "w18.txt"
        write_amplitude_file(path, states.w(18))
        code, out, err = run_cli(capsys, ["simulate", "-d", "5", "--coupling", "shift", "--input", str(path), "--json"])
        assert code == 0, err
        assert sum(float(o["probability"]) for o in json.loads(out)["outcomes"]) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("argv", [["simulate"], ["sample", "--shots", "5"]], ids=["simulate", "sample"])
    def test_cap_checked_before_the_register_is_built(self, capsys, monkeypatch, argv):
        # |+>^22 is one 64 MiB vector; under a 10-qubit cap none may be allocated.
        monkeypatch.setenv("QPARITY_MAX_QUBITS", "10")
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, argv + ["-n", "22", "-d", "3"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3 and out == ""
        assert err == "error: statevector path limited to 16384 bytes (10 qubits); 22 qubits need 67108864 bytes\n"
        assert peak < 16 << 22

    @pytest.mark.parametrize("argv", [["simulate"], ["sample", "--shots", "5"]], ids=["simulate", "sample"])
    def test_cap_checked_from_the_file_header(self, capsys, monkeypatch, tmp_path, argv):
        # A 17-qubit file's body is 2.6 MB of text; under a 10-qubit cap it is refused
        # from its header, below one 17-qubit vector (2 MiB) of memory.
        path = tmp_path / "big.txt"
        path.write_text("dims:" + " 2" * 17 + "\n" + f"{2 ** -8.5!r} 0\n" * (1 << 17))
        monkeypatch.setenv("QPARITY_MAX_QUBITS", "10")
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, argv + ["-d", "3", "--input", str(path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3 and out == ""
        assert err == "error: statevector path limited to 16384 bytes (10 qubits); 17 qubits need 2097152 bytes\n"
        assert peak < 16 << 17

    def test_out_of_memory_exit_code(self, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr("qparity.cli.run_module", exhausted)
        code, out, err = run_cli(capsys, ["simulate", "-n", "3", "-d", "2"])
        assert code == 3
        assert out == ""
        assert err.startswith("error: out of memory")
        assert "Traceback" not in err

    def test_probability_total_missing_1_exits_1_without_a_report(self, capsys, monkeypatch, tmp_path):
        # The total is checked once every branch is formed, before any output.
        branches = module._branches

        def last_branch_reported_zero(*args):
            *kept, (parity, _, _, _) = branches(*args)
            yield from kept
            yield parity, 0.0, None, None

        monkeypatch.setattr(module, "_branches", last_branch_reported_zero)
        report = tmp_path / "report.json"
        code, out, err = run_cli(capsys, ["simulate", "-n", "3", "-d", "2", "--json", "--out", str(report)])
        assert (code, out) == (1, "")
        total = re.fullmatch(r"error: branch probabilities sum to (\S+), not 1\n", err)
        assert total and float(total[1]) == pytest.approx(0.5), err
        assert not report.exists()

    def test_other_runtime_errors_keep_their_traceback(self, monkeypatch):
        # Exit 1 is for a probability total that misses 1; a fault in the program is not one.
        def broken(*args, **kwargs):
            raise RuntimeError("generator raised StopIteration")

        monkeypatch.setattr("qparity.cli.run_module", broken)
        with pytest.raises(RuntimeError, match="StopIteration"):
            main(["simulate", "-n", "3", "-d", "2"])

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

    def test_a_plus_file_keeps_its_exact_bits(self, tmp_path):
        # A run reports exact probabilities only when every amplitude has one value's bits.
        path = tmp_path / "plus.txt"
        for n in range(1, 19):
            write_amplitude_file(path, plus_state(n))
            assert np.array_equal(load_amplitude_file(path).amps.view(np.uint64), plus_state(n).amps.view(np.uint64)), n

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "state.txt"
        path.write_text(
            "# a comment\n\ndims: 2\n0.7071067811865476 0  # first\n\n0 0.7071067811865476\n"
        )
        loaded = load_amplitude_file(path)
        assert np.allclose(loaded.amps, [2**-0.5, 0.5j * 2**0.5], atol=1e-12)

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_numpy_reads_the_body_after_the_header(self, tmp_path, newline):
        # numpy's reader is handed the path and skips the lines up to the header, which
        # comments and blanks may precede; the line-by-line parse is never needed here.
        path = tmp_path / "state.txt"
        lines = ["# a comment", "", "dims: 2  # header", "0.6 0  # first", "", "# between", "0 0.8"]
        path.write_text(newline.join(lines) + newline, newline="")
        with mock.patch("qparity.cli._parse_amplitude_lines", side_effect=AssertionError("line-by-line parse")):
            assert np.array_equal(load_amplitude_file(path).amps, [0.6, 0.8j])

    @pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
    def test_a_compression_suffix_does_not_change_how_a_file_is_read(self, tmp_path, suffix):
        # numpy's reader would decompress such a path, so the body is parsed line by line.
        path = tmp_path / f"state{suffix}"
        path.write_text("dims: 2\n0.6 0\n0.8 0\n")
        assert np.array_equal(load_amplitude_file(path).amps, [0.6, 0.8])

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

    def test_errors_name_the_files_own_line(self, tmp_path):
        path = tmp_path / "state.txt"
        path.write_text("# c\n\ndims: 2\n1 0\nx y")
        with pytest.raises(ValueError, match="line 5: not numeric"):
            load_amplitude_file(path)
        path.write_text("# c\n\ndims: 2\n\n1 0 0  # three\n0 1\n")
        with pytest.raises(ValueError, match="line 5: expected 're im'"):
            load_amplitude_file(path)

    @pytest.mark.parametrize(
        "spelling, n",
        [
            pytest.param("repr", 3, id="repr"),
            pytest.param("underscores", 3, id="underscores"),
            pytest.param("repr", 16, id="repr-16q"),
        ],
    )
    def test_amplitudes_are_parsed_as_python_floats(self, tmp_path, rng, spelling, n):
        # Bit for bit complex(float(re), float(im)), divided by the root of its
        # linalg.squared_norm; numpy's reader rejects "1_0", so that spelling takes
        # the line-by-line parse.
        v = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        rows = [[repr(float(x.real)), repr(float(x.imag))] for x in v / np.linalg.norm(v)]
        if spelling == "underscores":
            rows = [[tok.replace("0.", "0_0.", 1) for tok in row] for row in rows]
            assert "_" in rows[0][0]
        path = tmp_path / "state.txt"
        path.write_text("dims:" + " 2" * n + "\n" + "".join(f"{re} {im}\n" for re, im in rows))
        want = np.array([complex(float(re), float(im)) for re, im in rows])
        got = load_amplitude_file(path).amps
        assert np.array_equal(got.view(np.uint64), (want / math.sqrt(squared_norm(want))).view(np.uint64))

    @pytest.mark.parametrize("mark", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"], ids=lambda m: f"U+{ord(m):04X}")
    def test_a_line_ends_only_at_a_newline(self, capsys, tmp_path, mark):
        # str.splitlines also breaks a line at these marks.  The header reader, numpy's
        # pass and the line-by-line fallback ("0_0.6") all read the file's own lines,
        # in which each mark is whitespace.
        path = tmp_path / "state.txt"
        for text in (
            f"# c{mark}dims: 2 2\ndims: 2\n0.6 0\n0.8 0\n",
            f"dims: 2\n0.6{mark}0\n0.8 0\n",
            f"dims: 2\n0_0.6{mark}0\n0.8 0\n",
        ):
            path.write_text(text, encoding="utf-8")
            assert np.array_equal(load_amplitude_file(path).amps, [0.6, 0.8])
            code, _, err = run_cli(capsys, ["simulate", "-d", "2", "--input", str(path)])
            assert code == 0, err
        path.write_text(f"dims: 2\n0.6 0{mark}0.8 0\n", encoding="utf-8")
        with pytest.raises(ValueError, match="expected 2 amplitude lines, found 1"):
            load_amplitude_file(path)

    def test_loading_holds_about_one_register_vector(self, tmp_path):
        # The body streams from the open file into numpy's one array, which is
        # renormalized in place and owned by the Ket.  Holding the whole text, its
        # list of lines and two more copies of the amplitudes peaked at 9.8 vectors.
        n = 16
        g = np.random.default_rng(n)
        v = g.normal(size=1 << n) + 1j * g.normal(size=1 << n)
        path = tmp_path / "state.txt"
        write_amplitude_file(path, Ket(v / np.linalg.norm(v), (2,) * n, normalized=True))
        tracemalloc.start()
        try:
            loaded = load_amplitude_file(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert loaded.factor_dims == (2,) * n
        assert peak < 2.5 * (16 << n)

    def test_a_malformed_file_is_located_without_holding_its_lines(self, tmp_path):
        # The fallback counts the body's lines in one pass over the open file and
        # parses them in a second.  Handing it the list of every line peaked at
        # 12.5 vectors on a 17-qubit file like this one.
        n = 14
        g = np.random.default_rng(n)
        v = g.normal(size=1 << n) + 1j * g.normal(size=1 << n)
        path = tmp_path / "state.txt"
        write_amplitude_file(path, Ket(v / np.linalg.norm(v), (2,) * n, normalized=True))
        lines = path.read_text().splitlines()
        lines[-1] = "0.1 x"
        path.write_text("\n".join(lines) + "\n")
        del lines
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"line {(1 << n) + 1}: not numeric"):
                load_amplitude_file(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * (16 << n)


BAD_TOKENS = ["x", "1,0", "0x1", "1e", "--1", "1j", "", "0 0"]
NONFINITE_TOKENS = ["nan", "-nan", "inf", "-inf", "1e400", "-1e999"]
BAD_HEADERS = ["", "dims", "dims:", "sizes: 2", "dims: 2.0", "dims: two", "dims: 2 x", "dims: 1e2", "dims: " + "9" * 5000]
HUGE_FACTORS = [2**20, 10**6, 2**31, 10**12, 2**64]
DEFECTS = ["header", "count", "token", "nonfinite", "factor", "huge", "qutrit", "qubits"]


def _starts_with_dims(text):
    return any(line.split("#", 1)[0].strip().lower().startswith("dims:") for line in text.splitlines())


@st.composite
def broken_amplitude_files(draw, defect):
    """A normalized amplitude file with the given defect, and the exit code it must get.

    Under a 2-qubit cap every defect is an input error (exit 2) except a
    well-formed 3-qubit register, which is a resource-envelope violation (exit 3).
    """
    n = 3 if defect == "qubits" else draw(st.integers(1, 2))
    factors = [3 if defect == "qutrit" else 2] * n
    size = math.prod(factors)
    parts = np.array(draw(st.lists(st.floats(-1, 1), min_size=2 * size, max_size=2 * size)))
    amps = parts[0::2] + 1j * parts[1::2]
    norm = np.linalg.norm(amps)
    amps = amps / norm if norm > 1e-3 else np.full(size, size**-0.5)
    rows = [[repr(float(a.real)), repr(float(a.imag))] for a in amps]
    header = None
    if defect == "header":
        header = draw(st.one_of(
            st.sampled_from(BAD_HEADERS),
            st.text(st.characters(blacklist_categories=("Cs",)), max_size=12).filter(
                lambda t: not _starts_with_dims(t)
            ),
        ))
    elif defect == "count":
        extra = draw(st.integers(1, 3))
        rows = rows[:-extra] if draw(st.booleans()) else rows + [["0", "0"]] * extra
    elif defect in ("token", "nonfinite"):
        row, col = draw(st.integers(0, size - 1)), draw(st.integers(0, 1))
        rows[row][col] = draw(st.sampled_from(BAD_TOKENS if defect == "token" else NONFINITE_TOKENS))
    elif defect == "factor":
        bad = draw(st.lists(st.sampled_from([-2, -1, 0]), min_size=1, max_size=n))
        factors = bad + factors[len(bad):]
    elif defect == "huge":
        factors = draw(st.lists(st.sampled_from(HUGE_FACTORS), min_size=1, max_size=4))
    if header is None:
        header = "dims: " + " ".join(map(str, factors))
    lines = [header] + [" ".join(row) for row in rows]
    return "\n".join(lines) + "\n", 3 if defect == "qubits" else 2


class TestAmplitudeFileFuzz:
    @pytest.mark.parametrize("defect", DEFECTS)
    @given(data=st.data())
    @settings(max_examples=15, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_malformed_files_exit_cleanly(self, capsys, tmp_path, defect, data):
        # No header, however large its product of dims, may allocate more
        # than the file's own lines: the count check comes first.
        text, expected = data.draw(broken_amplitude_files(defect))
        path = tmp_path / "state.txt"
        path.write_text(text, encoding="utf-8")
        with mock.patch.dict(os.environ, {"QPARITY_MAX_QUBITS": "2"}):
            tracemalloc.start()
            try:
                code, out, err = run_cli(capsys, ["simulate", "-d", "2", "--input", str(path)])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert code == expected, err
        assert out == ""
        assert err.startswith("error: ") and "Traceback" not in err
        assert peak < 1_000_000 + 1_000 * len(text.splitlines())


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

    @pytest.mark.parametrize("phases", ["roots:16", ",".join(["0"] * 16)], ids=["roots", "list"])
    def test_drive_at_the_cap_is_solved(self, capsys, monkeypatch, phases):
        # A 16 x 16 complex drive is 4096 bytes, one 8-qubit statevector.
        monkeypatch.setenv("QPARITY_MAX_QUBITS", "8")
        code, _, err = run_cli(capsys, ["solve", "--phases", phases])
        assert code == 0, err

    def test_solve_builds_no_dense_drive(self, capsys, monkeypatch):
        # The orbit of a diagonal drive is read from its eigenvalues, so the cap still
        # bounds the drive's bytes but solve forms no d x d matrix.
        monkeypatch.setattr(solver.EigenphaseSpec, "drive", lambda self: pytest.fail("built the drive"))
        code, out, err = run_cli(capsys, ["solve", "--phases", "roots:256"])
        assert code == 0, err
        assert "orbit Gram deviation" in out

    @pytest.mark.parametrize("phases", ["roots:17", ",".join(["0"] * 17)], ids=["roots", "list"])
    def test_drive_over_the_cap_is_refused_by_its_bytes(self, capsys, monkeypatch, phases):
        monkeypatch.setenv("QPARITY_MAX_QUBITS", "8")
        code, out, err = run_cli(capsys, ["solve", "--phases", phases])
        assert code == 3 and out == ""
        assert err == "error: statevector path limited to 4096 bytes (8 qubits); the drive of 17 eigenphases needs 4624 bytes as a 17 x 17 complex matrix\n"

    def test_huge_roots_are_refused_before_their_phases_exist(self, capsys, monkeypatch):
        # roots:100000000 would build 10^8 phases, gigabytes of Python floats, before any
        # d x d matrix; the spec builder fails the test instead of running.
        monkeypatch.setenv("QPARITY_MAX_QUBITS", "8")
        monkeypatch.setattr(solver, "roots_of_unity_spec", lambda *args: pytest.fail("built the phases"))
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, ["solve", "--phases", "roots:100000000"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3 and out == ""
        assert "needs 160000000000000000 bytes" in err
        assert peak < 1 << 20

    @pytest.mark.parametrize("phases", ["roots:1", "roots:-100"])
    def test_roots_below_two_stay_an_input_error(self, capsys, monkeypatch, phases):
        monkeypatch.setenv("QPARITY_MAX_QUBITS", "8")
        code, _, err = run_cli(capsys, ["solve", "--phases", phases])
        assert code == 2
        assert "need dimension >= 2" in err

    @pytest.mark.parametrize("phases", ["nan,0", "inf,0", "0,-inf"])
    def test_non_finite_phase_is_an_input_error(self, capsys, phases):
        code, out, err = run_cli(capsys, ["solve", "--phases", phases])
        assert code == 2
        assert out == ""
        assert "must be finite" in err


class TestVerify:
    # The real suites are asserted by tests/test_verify.py; these check the
    # CLI's report format and exit code on stub suites.
    @pytest.fixture
    def stub_suites(self, monkeypatch):
        monkeypatch.setattr(verify, "SUITES", {
            "good": lambda: [Check("first law", True), Check("second law", True)],
            "bad": lambda: [Check("third law", False, ["(n=2,d=2)", "(n=3,d=2)"])],
        })

    def test_passing_suite_exits_zero(self, capsys, stub_suites):
        code, out, _ = run_cli(capsys, ["verify", "--suite", "good"])
        assert code == 0
        assert out == "PASS  first law\nPASS  second law\n2/2 checks passed\n"

    def test_failing_suite_exits_one(self, capsys, stub_suites):
        code, out, _ = run_cli(capsys, ["verify", "--suite", "all"])
        assert code == 1
        assert out == (
            "PASS  first law\nPASS  second law\n"
            "FAIL  third law: (n=2,d=2); (n=3,d=2)\n"
            "2/3 checks passed, 1 FAILED\n"
        )

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

    def test_output_matches_per_draw_formatting(self, capsys):
        # At n=14, d=12 every label is drawn, the two-digit ones included.
        for n, d in ((4, 3), (14, 12)):
            _, out, _ = run_cli(capsys, ["sample", "-n", str(n), "-d", str(d), "--shots", "1000", "--seed", "7"])
            probs = outcome_distribution(plus_state(n), n, d)
            draws = np.random.default_rng(7).choice(d, size=1000, p=probs)
            assert set(draws.tolist()) == set(range(min(n + 1, d)))
            assert out == "".join(f"{parity}\n" for parity in draws)

    def test_blocks_draw_what_one_call_draws(self, capsys, monkeypatch, tmp_path):
        # Generator.choice takes its uniforms in order, so blocks of 7 shots draw what one call does.
        monkeypatch.setattr(cli, "_SAMPLE_BLOCK", 7)
        draws = tmp_path / "draws.txt"
        assert run_cli(capsys, ["sample", "-n", "3", "-d", "3", "--shots", "1000", "--seed", "5", "--out", str(draws)])[0] == 0
        expect = np.random.default_rng(5).choice(3, size=1000, p=outcome_distribution(plus_state(3), 3, 3))
        assert draws.read_text() == "".join(f"{m}\n" for m in expect)

    def test_working_space_does_not_grow_with_shots(self, capsys, monkeypatch, tmp_path):
        # 2^18 shots in blocks of 2^12: the shots-long array of draws alone would take 2 MiB,
        # and its list of labels as much again.
        monkeypatch.setattr(cli, "_SAMPLE_BLOCK", 1 << 12)
        argv = ["sample", "-n", "3", "-d", "3", "--shots", str(1 << 18), "--out", str(tmp_path / "draws.txt")]
        run_cli(capsys, argv)  # imports and caches what a first run needs
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and peak < 1 << 20, peak
        assert (tmp_path / "draws.txt").stat().st_size == 2 << 18

    def test_zero_shots(self, capsys):
        code, out, _ = run_cli(capsys, ["sample", "-n", "2", "-d", "2", "--shots", "0"])
        assert code == 0
        assert out == ""

    def test_negative_shots(self, capsys):
        code, _, _ = run_cli(capsys, ["sample", "-n", "2", "-d", "2", "--shots", "-1"])
        assert code == 2

    def test_probability_total_missing_1_exits_1_without_draws(self, capsys, monkeypatch, tmp_path):
        heralded = module._heralded

        def halved(amps, n, d, coupling):
            b, classes, probs = heralded(amps, n, d, coupling)
            return b, classes, [p / 2 for p in probs]

        monkeypatch.setattr(module, "_heralded", halved)
        draws = tmp_path / "draws.txt"
        code, out, err = run_cli(capsys, ["sample", "-n", "3", "-d", "2", "--shots", "5", "--out", str(draws)])
        assert (code, out) == (1, "")
        total = re.fullmatch(r"error: projector probabilities sum to (\S+), not 1\n", err)
        assert total and float(total[1]) == pytest.approx(0.5), err
        assert not draws.exists()

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


def _text_and_payload(capsys, argv):
    """The text report's lines and the --json payload of one command."""
    code, text, _ = run_cli(capsys, argv)
    json_code, out, _ = run_cli(capsys, argv + ["--json"])
    assert code == json_code
    payload = json.loads(out)
    assert verify_checksum(payload)
    return text.splitlines(), payload


def _shown(value):
    """How a table's text column shows a payload value."""
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "NO"
    return str(value)


SELF_DUAL_NOTE = "self-dual class: single outcome; doubling would overcount"
# The payload keys of each table's text columns, left to right.
TABLE_COLUMNS = {
    "dicke": ("n", "parity", "probability_exact", "probability", "dual_pair"),
    "w-compare": ("n", "p_w", "baseline", "gain", "bound", "ok"),
    "halfdicke-scaling": ("k", "n", "probability_exact", "probability", "asymptote", "relative_error", "pair_form"),
}


class TestReportForms:
    """Each text row states the values of its --json row."""

    @pytest.mark.parametrize("coupling", ["phase", "shift"])
    def test_simulate(self, capsys, coupling):
        lines, payload = _text_and_payload(capsys, ["simulate", "-n", "5", "-d", "3", "--coupling", coupling])
        config = payload["config"]
        assert lines[0] == f"parity module: n={config['qubits']} qubits, d={config['ancilla_dim']} ancilla, {coupling} coupling"
        assert lines[1] == f"input: {config['input']}; measurement basis: {config['measurement_basis']}"
        assert len(lines) == 3 + len(payload["outcomes"])
        for line, row in zip(lines[3:], payload["outcomes"]):
            parity, outcome, exact, prob, label, weights = re.split(r"\s{2,}", line.strip())
            assert (int(parity), int(outcome), prob) == (row["parity"], row["outcome"], row["probability"])
            assert exact == _shown(row["probability_exact"])
            if row["zero_probability"]:
                assert (label, weights, row["classification"]) == ("(zero probability)", "-", None)
                continue
            assert label == row["classification"] + (" (up to bitflip)" if row["up_to_bitflip"] else "")
            shown = row["dicke_coeffs"] if row["dicke_weights"] is None else row["dicke_weights"]
            assert [tok.split(":") for tok in weights.split()] == [[k, str(v)] for k, v in shown.items()]

    @pytest.mark.parametrize("phases", ["roots:4", f"0,0,{math.pi},{math.pi}", "0,0.1"])
    def test_solve(self, capsys, phases):
        lines, payload = _text_and_payload(capsys, ["solve", "--phases", phases])
        fields = dict(line.split(": ", 1) for line in lines)
        assert fields.pop("eigenphases").split(", ") == payload["phases"]
        distinct = re.fullmatch(r"(\d+) \(multiplicities (.*)\)", fields.pop("distinct eigenvalues"))
        assert int(distinct[1]) == payload["distinct_eigenvalues"]
        assert distinct[2].split(", ") == [str(m) for m in payload["multiplicities"]]
        assert fields.pop("feasible") == ("yes" if payload["feasible"] else "no")
        if not payload["feasible"]:
            assert list(fields) == ["no state yields an orthonormal orbit"]
            return
        assert fields.pop("squared magnitudes").split(", ") == payload["squared_amps"]
        assert fields.pop("phase offset") == payload["phase_offset"]
        assert fields.pop("orbit Gram deviation") == payload["gram_deviation"]
        assert fields == {
            f"eigenspace {tuple(c['indices'])}": f"total weight {c['weight']}"
            for c in payload["eigenspace_constraints"]
        }

    @pytest.mark.parametrize("family", sorted(TABLE_COLUMNS))
    def test_table(self, capsys, family):
        lines, payload = _text_and_payload(capsys, ["table", "--family", family, "--max-n", "6"])
        rows, columns = payload["rows"], TABLE_COLUMNS[family]
        assert rows and len(lines) == 1 + len(rows) + (family == "halfdicke-scaling")
        for line, row in zip(lines[1:], rows):
            tokens = line.split(None, len(columns))
            assert tokens[: len(columns)] == [_shown(row[c]) for c in columns]
            if family == "dicke":
                assert tokens[len(columns) :] == ([SELF_DUAL_NOTE] if row["self_dual"] else [])
        if family == "halfdicke-scaling":
            assert all(row["self_dual"] for row in rows) and "self-dual" in lines[-1]


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

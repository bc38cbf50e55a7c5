"""CLI surface: subcommands, exit codes, JSON schema conformance, set-file
round trips, and seed and output plumbing."""

import csv
import io
import json
import math
import os
import random
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from ilab.arith import primes_up_to
from ilab.auxiliary import AuxiliaryFamily
from ilab.circle import dft_indicator
from ilab.cli import _top_frequencies, build_parser, main
from ilab.poly import parse_poly
from ilab.setio import SET_FILE_LIMIT, load_set, runs_of, save_dfset

REPO = Path(__file__).resolve().parent.parent
SCHEMA_PATH = REPO / "schemas" / "cli_output.schema.json"


def subprocess_env(**extra: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    env.update(extra)
    return env


def per_line_load_set(path):
    """Reference DFSET1/plain loader: one run or member per line in Python
    ints.  A run of length < 1 is malformed, as in load_set."""
    lines = [ln.strip() for ln in Path(path).read_text().splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        return [], None
    if lines[0].startswith("DFSET1"):
        head = lines[0].split()
        if len(head) != 2:
            raise ValueError("malformed DFSET1 header")
        N = int(head[1])
        members = []
        for ln in lines[1:]:
            parts = ln.split()
            if len(parts) != 2:
                raise ValueError(f"malformed DFSET1 run: {ln!r}")
            start, length = int(parts[0]), int(parts[1])
            if length < 1:
                raise ValueError(f"malformed DFSET1 run: {ln!r}")
            members.extend(range(start, start + length))
        return sorted(set(members)), N
    return sorted({int(ln) for ln in lines}), None


@pytest.fixture(scope="module")
def validator():
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads(SCHEMA_PATH.read_text())
    return jsonschema.Draft202012Validator(schema)


def run_cli(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestExitCodes:
    def test_intersective_exits_zero(self, capsys):
        code, out = run_cli(capsys, "intersect", "check", "--poly", "0,0,1")
        assert code == 0
        assert json.loads(out)["status"] == "intersective"

    def test_not_intersective_exits_one(self, capsys):
        code, out = run_cli(capsys, "intersect", "check", "--poly", "1,0,1")
        assert code == 1
        payload = json.loads(out)
        assert payload["status"] == "not_intersective"
        assert payload["witness"] == {"p": 3, "j": 1}

    def test_usage_error_exits_two(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ilab", "nonsense"],
            capture_output=True,
            text=True,
            env=subprocess_env(),
        )
        assert proc.returncode == 2

    def test_resource_guard_exits_three(self, capsys):
        code, _ = run_cli(capsys, "expsum", "complete", "--poly", "x^2", "-a", "1", "-q", "9999991")
        assert code == 3

    def test_exact_count_node_guard_exits_three(self, capsys, monkeypatch):
        # X mod wheel = 10^12 is past COUNT_SPAN_LIMIT: inclusion-exclusion counts
        monkeypatch.setattr("ilab.sieve.COUNT_NODE_LIMIT", 1000)
        code = main(["sieve", "count", "--poly", "x^2", "--Y", "66", "--X", "1000000000000"])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err.startswith("resource guard: ") and captured.err.count("\n") == 1
        assert "1000 inclusion-exclusion nodes" in captured.err

    def test_singular_lift_guard_exits_three(self, capsys, monkeypatch):
        # x^2 - 2*7^6 has no rational root; at p = 7 its lift to j = 7 asks
        # for 343 * 7 = 2401 residues
        monkeypatch.setattr("ilab.padic.ROOTS_BRUTE_LIMIT", 2400)
        code = main(["intersect", "check", "--poly", "x^2-235298", "--prime-bound", "7"])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err.startswith("resource guard: ") and captured.err.count("\n") == 1
        assert "capped at 2400 residues" in captured.err

    def test_sieve_table_lift_guard_exits_three(self, capsys, monkeypatch):
        # g' = 2048x vanishes at every residue mod 2^11, so its roots are
        # asked for mod 2^12, past the scan limit
        monkeypatch.setattr("ilab.padic.ROOTS_BRUTE_LIMIT", 1000)
        code = main(["sieve", "table", "--poly", "1024x^2", "--Y", "2"])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err == "resource guard: root scan capped at q <= 1000, got q = 4096\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("sets", "greedy", "--gens", "x^2-1000000000000x", "--N", "100"),
             "image enumeration capped at 10000000 values of n, got 1000000000012"),
            (("sets", "table", "--gens", "x^2-1000000000000x", "--Ns", "100"),
             "image enumeration capped at 10000000 values of n, got 1000000000012"),
            (("sets", "verify", "--gens", "x^2-1000000000000x", "--set", "{pair}", "--N", "100"),
             "image enumeration capped at 10000000 values of n, got 1000000000012"),
            (("sieve", "table", "--poly", "x^3+2x+5", "--Y", "20000"),
             "sieve modulus capped at 10^4000 (reached at p = 9337)"),
            (("sieve", "table", "--poly", "x^3+2x+5", "--Y", "300000"),
             "sieve modulus capped at 10^4000 (reached at p = 9337)"),
            (("sieve", "table", "--poly", "x^3+2x+5", "--Y", "1e300"),
             "sieve modulus capped at 10^4000 (reached at p = 9337)"),
            (("sieve", "table", "--poly", "1048576x^2", "--Y", "3"),
             "root scan capped at q <= 1000000, got q = 4194304"),
            # 2^22 is past the scan limit at p = 2, long before the cap at p = 9337
            (("sieve", "table", "--poly", "1048576x^2", "--Y", "20000"),
             "root scan capped at q <= 1000000, got q = 4194304"),
            # the search needs about 13 000 nodes to exhaust
            (("sets", "search", "--q", "305", "--k", "2", "--mode", "exhaustive",
              "--budget", "500"),
             "exhaustive search cut at its budget of 500 nodes (q = 305)"),
            # exact n-th roots: N = 10^400 no longer passes through a float
            (("sets", "greedy", "--gens", "x^2", "--N", str(10**400)),
             f"image enumeration capped at 10000000 values of n, got {10**200 + 2}"),
            # past BITSET_LIMIT - 1, checked before F (3.2 * 10^6 squares at
            # N = 10^13) and the N-sized mask are built
            (("sets", "greedy", "--gens", "x^2", "--N", str(2**28)),
             "greedy construction capped at N <= 268435455, got 268435456"),
            (("sets", "greedy", "--gens", "x^2", "--N", str(10**13)),
             f"greedy construction capped at N <= 268435455, got {10**13}"),
            (("sets", "trivial", "--N", str(10**400), "--k", "2"),
             "trivial construction capped at p^(k-1) <= 32768 members"),
            # floor(sqrt(N)) = 32769 = TRIVIAL_LIMIT + 1
            (("sets", "trivial", "--N", "1073807361", "--k", "2"),
             "trivial construction capped at p^(k-1) <= 32768 members"),
            (("sets", "ruzsa", "--B", "0,2", "--q", "5", "--k", "2", "--N", "300000000"),
             "Ruzsa lift capped at N <= 10000000, got 300000000"),
            # members are int64: N = 2^63 is refused before any image is built
            (("sets", "verify", "--gens", "x^2", "--set", "{pair}", "--N", str(2**63)),
             f"sets capped at N < 2^63 (int64 members), got {2**63}"),
            (("sets", "verify", "--gens", "x^10", "--set", "{pair}", "--N", str(2**70)),
             f"sets capped at N < 2^63 (int64 members), got {2**70}"),
            (("sets", "trivial", "--N", str(2**63), "--k", "1"),
             f"sets capped at N < 2^63 (int64 members), got {2**63}"),
            (("expsum", "audit-sqrt", "--poly", "x^3", "--qmax", "1000000", "--Y", "0"),
             "square-root audit capped at 10000000 residues (sum of q <= q_max), "
             "got 500000500000 for q_max = 1000000"),
            (("aux", "audit", "--poly", "(x^3-19)(x^2+x+1)", "--dmax", "1000001"),
             "content audit capped at d_max <= 1000000, got 1000001"),
            (("expsum", "major", "--poly", "x^2", "-a", "1", "-q", "3", "--beta", "1e-9",
              "--X", str(10**30), "--Y", "10"),
             "Weyl sums capped at X <= 100000000"),
            # checked before the oscillatory integral turns X into a float
            (("expsum", "major", "--poly", "x^2", "-a", "1", "-q", "3", "--beta", "0",
              "--X", str(10**200), "--Y", "10"),
             "Weyl sums capped at X <= 100000000"),
            # checked before any run is expanded: one long run, or runs that add up
            (("circle", "dft", "--set", "{long_run}"),
             f"DFSET1 runs capped at {SET_FILE_LIMIT} members in total, got {10**10}"),
            (("circle", "dft", "--set", "{many_runs}"),
             f"DFSET1 runs capped at {SET_FILE_LIMIT} members in total, "
             f"got {SET_FILE_LIMIT + 1}"),
        ],
        ids=["image-greedy", "image-table", "image-verify", "modulus-20000", "modulus-300000",
             "modulus-1e300", "sieve-scan", "sieve-scan-before-cap", "search-exhaustive-cut",
             "image-N-1e400", "greedy-N-past-bitset",
             "greedy-N-1e13", "trivial-N-1e400", "trivial-past-limit", "ruzsa-N",
             "verify-N-2^63", "verify-N-2^70", "trivial-N-2^63", "audit-sqrt-total",
             "aux-audit-dmax", "major-X-1e30", "major-beta0-X-1e200", "dfset-long-run",
             "dfset-run-total"],
    )
    def test_size_guards_exit_three_quickly(self, capsys, tmp_path, argv, message):
        files = {name: tmp_path / name for name in ("pair", "long_run", "many_runs")}
        files["pair"].write_text("1\n2\n")
        files["long_run"].write_text(f"DFSET1 10\n1 {10**10}\n")
        half = SET_FILE_LIMIT // 2
        files["many_runs"].write_text(f"DFSET1 10\n1 {half}\n1 {half}\n5 1\n")
        start = time.perf_counter()
        code = main([a.format(**files) for a in argv])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err == f"resource guard: {message}\n"
        assert elapsed < 2

    @pytest.mark.parametrize("poly", ["(x-1)*(x^9+1000000000000000000000000000000)",
                                      f"(x-1)*(x^7+{10**44})"])
    def test_content_audit_ratio_past_the_float_range(self, capsys, poly):
        # |Delta|^(k-1) cont(h)^2 is past the largest double: the ratio is
        # taken against its integer square root and may underflow to 0.0
        code, out = run_cli(capsys, "aux", "audit", "--poly", poly, "--dmax", "20")
        payload = json.loads(out)
        assert code == 0 and payload["max_content"] == 1
        assert math.isfinite(payload["max_ratio"]) and 0.0 <= payload["max_ratio"] < 1e-300

    def test_subnormal_beta_major_arc_is_finite(self, capsys):
        # 1/(2 pi beta) overflows here; the integral tends to g(X) - g(0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run_cli(capsys, "expsum", "major", "--poly", "x^2", "-a", "1", "-q",
                                "3", "--beta=5e-324", "--X", "1000", "--Y", "10")
            _, ref = run_cli(capsys, "expsum", "major", "--poly", "x^2", "-a", "1", "-q",
                             "3", "--beta=0", "--X", "1000", "--Y", "10")
        payload, at_zero = json.loads(out), json.loads(ref)
        assert code == 0 and payload["vdc_ok"] and payload["in_regime"]
        for key in ("main_re", "main_im", "actual_re", "actual_im", "abs_err"):
            assert payload[key] == pytest.approx(at_zero[key], rel=1e-12), key

    @pytest.mark.parametrize("a, q, reduced", [("4", "3", 1), ("1", "1", 0), ("-2", "5", 3)])
    def test_major_echoes_the_point_it_summed_at(self, capsys, a, q, reduced):
        # -a is taken mod q, as expsum complete reports it
        argv = ("--poly", "x^2", "-a", a, "-q", q)
        code, out = run_cli(capsys, "expsum", "major", *argv, "--beta", "0", "--X", "100", "--Y", "5")
        _, complete = run_cli(capsys, "expsum", "complete", *argv)
        payload = json.loads(out)
        assert code == 0 and (payload["a"], payload["q"]) == (reduced, int(q))
        assert json.loads(complete)["a"] == reduced

    def test_small_turn_major_arc_keeps_its_imaginary_part(self, capsys):
        # t = beta (g(X) - g(0)) = 1e-9: the main term's imaginary part is
        # about pi 1e-6 (60-digit mpmath: 3.1415926535897932e-06), not 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run_cli(capsys, "expsum", "major", "--poly", "x^3", "-a", "0", "-q",
                                "1", "--beta", "1e-12", "--X", "10", "--Y", "0")
        payload = json.loads(out)
        assert code == 0 and payload["main_re"] == 1000.0
        assert payload["main_im"] == pytest.approx(3.1415926535897932e-06, rel=1e-15)

    def test_ruzsa_large_q_exits_zero_quickly(self, capsys):
        # B's differences are tested by Euler's criterion at each p | q, not
        # against a listed set of about q residues
        start = time.perf_counter()
        code, out = run_cli(capsys, "sets", "ruzsa", "--B", "0", "--q", "100000007",
                            "--k", "2", "--N", "10")
        assert code == 0 and json.loads(out)["size"] == 0
        assert time.perf_counter() - start < 2

    def test_sieve_modulus_just_below_the_cap_prints(self, capsys):
        # gamma = 1 at every prime, so the modulus is the primorial of Y
        code, out = run_cli(capsys, "sieve", "table", "--poly", "x^3+2x+5", "--Y", "9336")
        modulus = json.loads(out)["modulus"]
        assert code == 0 and modulus == math.prod(primes_up_to(9336))
        assert 10**3990 < modulus < 10**4000

    def test_sumset_guard_exits_three(self, capsys):
        # the third x^2 would form 215907 x 999 pair sums
        code = main(["sets", "greedy", "--gens", "x^2;x^2;x^2", "--N", "1000000"])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err.startswith("resource guard: ") and captured.err.count("\n") == 1
        assert "capped at 100000000 pair sums" in captured.err

    def test_search_q_guard_exits_three(self, capsys):
        code = main(["sets", "search", "--q", "5000", "--k", "2", "--budget", "10"])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err.startswith("resource guard: ") and captured.err.count("\n") == 1
        assert "capped at q <= 1000" in captured.err

    def test_bitset_guard_exits_three(self, capsys, tmp_path, monkeypatch):
        # 40 members are dense enough at N = 1000 for the shift-AND kernel
        monkeypatch.setattr("ilab.diffsets.BITSET_LIMIT", 512)
        f = tmp_path / "s.txt"
        f.write_text("".join(f"{n}\n" for n in range(1, 1000, 25)))
        code = main(["sets", "verify", "--gens", "x^2", "--set", str(f), "--N", "1000"])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err.startswith("resource guard: ") and captured.err.count("\n") == 1
        assert "bitset capped at 512 bits (largest member 976)" in captured.err

    def test_dft_guard_exits_three(self, capsys, tmp_path):
        f = tmp_path / "s.txt"
        f.write_text("1\n2\n")
        code = main(["circle", "dft", "--set", str(f), "--N", str(2**25)])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err == f"resource guard: DFT length capped at N <= {2**24}, got {2**25}\n"

    def test_internal_error_exits_four_with_one_line(self, capsys, monkeypatch):
        # a search whose re-verification fails trips modular_search's assertion
        monkeypatch.setattr("ilab.diffsets.verify_modular", lambda *_: False)
        code = main(["sets", "search", "--q", "5", "--k", "2", "--mode", "exhaustive"])
        captured = capsys.readouterr()
        assert code == 4 and captured.out == ""
        assert captured.err == "internal error: AssertionError: search produced an invalid set\n"

    def test_internal_error_process_exits_four_without_traceback(self):
        script = (
            "import runpy, ilab.diffsets as d; d.verify_modular = lambda *_: False; "
            "runpy.run_module('ilab', run_name='__main__')"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, "sets", "search", "--q", "5", "--k", "2"],
            capture_output=True,
            text=True,
            env=subprocess_env(),
        )
        assert proc.returncode == 4 and proc.stdout == ""
        assert proc.stderr == "internal error: AssertionError: search produced an invalid set\n"

    def test_closed_stdout_keeps_the_exit_code(self, capsys, monkeypatch):
        # the reader is gone before the payload is written: no error line,
        # and the data outcome still decides the exit code
        read, write = os.pipe()
        os.close(read)
        with open(write, "w") as pipe:
            monkeypatch.setattr(sys, "stdout", pipe)
            assert main(["intersect", "check", "--poly", "x^2+1", "--prime-bound", "50"]) == 1
        assert capsys.readouterr().err == ""

    def test_reader_closing_the_pipe_after_one_byte(self):
        # `ilab ... | head -c 1`: the payload (about 150 kB) outgrows the
        # pipe, so the write meets the closed end
        argv = ["intersect", "check", "--poly", "(x^3-19)(x^2+x+1)", "--prime-bound", "5000"]
        with subprocess.Popen(
            [sys.executable, "-m", "ilab", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=subprocess_env(),
        ) as proc:
            first = proc.stdout.read(1)
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == 0
        assert first == b"{" and err == b""

    def test_violation_exits_one(self, capsys, tmp_path):
        f = tmp_path / "s.txt"
        f.write_text("1\n2\n")
        code, out = run_cli(capsys, "sets", "verify", "--gens", "x^2", "--set", str(f), "--N", "10")
        assert code == 1
        assert json.loads(out)["violation"]["decomposition"] == [1]

    @pytest.mark.parametrize(
        "argv, needle",
        [
            (("circle", "dft", "--set", "{missing}"), "No such file"),
            (("sets", "search", "--q", "0", "--k", "2"), "q must be"),
            (("sets", "search", "--q", "1", "--k", "2"), "q must be"),
            (("sets", "search", "--q", "5", "--k", "0"), "k must be"),
            (("sets", "greedy", "--gens", "x^2", "--N", "0"), "N must be"),
            (("sets", "ruzsa", "--B", "0,2", "--q", "5", "--k", "2", "--N", "0"), "N must be"),
            (("expsum", "complete", "--poly", "x^3", "-a", "5", "-q", "360"),
             "a = 5, q = 360, gcd = 5"),
            (("sets", "ruzsa", "--B", "0", "--q", "1", "--k", "2", "--N", "10"),
             "q must be >= 2, got 1"),
            (("sets", "trivial", "--N", "10", "--k", "-1"), "k must be >= 1, got -1"),
            (("sets", "trivial", "--N", "10", "--k", "0"), "k must be >= 1, got 0"),
            (("sets", "trivial", "--N", "3", "--k", "1000000000000"), "need N >= 2^k"),
            (("circle", "dft", "--set", "{empty}"), "N must be >= 1, got 0"),
            (("circle", "dft", "--set", "{ten}", "--N", "0"), "N must be >= 1, got 0"),
            (("intersect", "check", "--poly", "x^2", "--depth", "0"), "depth must be >= 1, got 0"),
            (("aux", "build", "--poly", "x^2", "--d", "1", "--depth", "0"), "depth must be >= 1, got 0"),
            # the sextic needs precision 11 at p = 2, past the default depth 8
            (("aux", "audit", "--poly", "(x^2-13)*(x^2-17)*(x^2-221)", "--dmax", "200"),
             "error: no certifiable root of x^6-251x^4+6851x^2-48841 at p=2 within depth 8\n"),
            (("circle", "increment", "--set", "{ten}", "--q", "11", "--K", "1", "--theta", "0.5"),
             "q must not exceed N"),
            (("sieve", "table", "--poly", "3x+1", "--Y", "2"), "the sieve needs degree >= 2, got 1"),
            (("expsum", "major", "--poly", "x^2", "-a", "1", "-q", "3", "--beta=nan",
              "--X", "1000", "--Y", "10"), "cannot convert NaN to integer ratio"),
            (("expsum", "major", "--poly", "x^2", "-a", "1", "-q", "3", "--beta=inf",
              "--X", "1000", "--Y", "10"), "cannot convert Infinity to integer ratio"),
            (("circle", "dft", "--set", "{negative_run}"),
             "error: malformed DFSET1 run: '5 -3' (length < 1)\n"),
            (("circle", "dft", "--set", "{three_fields}"), "error: malformed DFSET1 run"),
            (("sets", "search", "--q", "5", "--k", "2", "--mode", "exhaustive", "--target", "0"),
             "error: target must be >= 1, got 0\n"),
            (("sets", "search", "--q", "5", "--k", "2", "--target", "-3"),
             "error: target must be >= 1, got -3\n"),
            (("circle", "increment", "--set", "{ten}", "--q", "0", "--K", "1", "--theta", "0.5"),
             "error: q must be >= 1, got 0\n"),
            (("circle", "increment", "--set", "{ten}", "--q", "-2", "--K", "1", "--theta", "0.5"),
             "error: q must be >= 1, got -2\n"),
            (("expsum", "complete", "--poly", "x^2", "-a", "1", "-q", "0"),
             "error: q must be >= 1, got 0\n"),
            (("expsum", "major", "--poly", "x^2", "-a", "1", "-q", "0", "--X", "10", "--Y", "0"),
             "error: q must be >= 1, got 0\n"),
            (("expsum", "moment", "--poly", "x^2", "--L", "0", "--m", "2", "--Y", "10"),
             "error: L must be >= 1, got 0\n"),
        ],
        ids=["missing-set", "search-q0", "search-q1", "search-k0", "greedy-N0",
             "ruzsa-N0", "unreduced-a-q", "ruzsa-q1", "trivial-k-1", "trivial-k0", "trivial-huge-k",
             "dft-empty-header", "dft-N0", "intersect-depth0", "aux-depth0", "aux-sextic-depth8",
             "increment-q-past-L", "sieve-degree-1", "major-beta-nan", "major-beta-inf",
             "dfset-negative-run", "dfset-three-fields", "search-target0-exhaustive",
             "search-target-negative", "increment-q0", "increment-q-negative", "complete-q0",
             "major-q0", "moment-L0"],
    )
    def test_bad_input_exits_two_with_one_line(self, capsys, tmp_path, argv, needle):
        save_dfset(tmp_path / "empty.dfset", [], 0)
        save_dfset(tmp_path / "ten.dfset", [1, 2, 5], 10)
        (tmp_path / "negative_run.dfset").write_text("DFSET1 10\n5 -3\n")
        (tmp_path / "three_fields.dfset").write_text("DFSET1 10\n1 2\n5 1 7\n")
        files = {
            name: tmp_path / f"{name}.dfset"
            for name in ("missing", "empty", "ten", "negative_run", "three_fields")
        }
        code = main([a.format(**files) for a in argv])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "Traceback" not in captured.err
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert needle in captured.err

    def test_stdout_is_strict_json(self, capsys):
        def reject(constant):
            raise ValueError(f"non-finite JSON constant {constant}")

        code, out = run_cli(
            capsys,
            "expsum", "major", "--poly", "x^2", "-a", "1", "-q", "3",
            "--beta", "0", "--X", "0", "--Y", "10",
        )
        assert code == 0
        assert json.loads(out, parse_constant=reject)["rel_err"] is None

    def test_parser_built_once(self, capsys):
        run_cli(capsys, "aux", "build", "--poly", "x^2", "--d", "4")
        run_cli(capsys, "aux", "build", "--poly", "x^2", "--d", "5")
        assert build_parser.cache_info().misses == 1


class TestJsonBlocks:
    ARGV = ("intersect", "check", "--poly", "(x^3-19)(x^2+x+1)", "--prime-bound", "3000",
            "--depth", "6")

    def test_blocks_join_to_the_one_shot_text(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr("ilab.cli.JSON_BLOCK", 7)
        code, out = run_cli(capsys, *self.ARGV)
        assert code == 0
        assert out == json.dumps(json.loads(out), sort_keys=True, indent=2, allow_nan=False) + "\n"
        path = tmp_path / "out.json"
        assert main(["--output", str(path), *self.ARGV]) == 0
        assert path.read_text() == out

    def test_late_nan_writes_nothing(self, capsys, monkeypatch, tmp_path):
        # "moment" comes after several blocks of one chunk each
        monkeypatch.setattr("ilab.cli.JSON_BLOCK", 1)
        monkeypatch.setattr("ilab.cli.moment_sum", lambda *_: float("nan"))
        argv = ["expsum", "moment", "--poly", "x^2", "--L", "100", "--m", "2", "--Y", "5"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")
        path = tmp_path / "out.json"
        assert main(["--output", str(path), *argv]) == 2
        assert not path.exists()

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM")
    def test_bounded_memory(self):
        # 10 MB of indented JSON: encoded in one piece (a list of millions of
        # small strings before the join) the child peaked near 125 MB, in
        # blocks near 67 MB.  The child reads its own VmHWM: ru_maxrss would
        # carry over this test process's peak
        code = (
            "import os\n"
            "from ilab.cli import main\n"
            "argv = ['intersect', 'check', '--poly', '(x^3-19)(x^2+x+1)',\n"
            "        '--prime-bound', '400000', '--depth', '6']\n"
            "assert main(['--output', os.devnull, *argv]) == 0\n"
            "status = open('/proc/self/status').read().split('VmHWM:')[1]\n"
            "print(status.split()[0])\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env=subprocess_env(), capture_output=True, text=True,
            check=True,
        )
        assert int(out.stdout) / 1024 < 95  # VmHWM is in kB


class TestTopFrequencies:
    @pytest.mark.parametrize("N", [1, 2, 3, 5, 8, 9, 1000, 7 * 2**10, 2**16 + 1])
    @pytest.mark.parametrize("kind", ["random", "mult7"])
    def test_matches_the_stable_full_sort(self, N, kind):
        # the multiples of 7 tie exactly at t and N - t, and at 7 | N in
        # exact zeros; N <= 9 leaves fewer than 8 candidates
        rng = random.Random(N)
        if kind == "mult7":
            members = list(range(7, N + 1, 7)) or [N]
        else:
            members = [n for n in range(1, N + 1) if rng.random() < 0.3] or [N]
        mags = np.abs(dft_indicator(members, N).values)
        want = np.argsort(-mags[1:], kind="stable")[:8] + 1
        assert _top_frequencies(mags, 8).tolist() == want.tolist()

    def test_all_tied(self):
        mags = np.array([1.0] + [0.5] * 20)
        assert _top_frequencies(mags, 8).tolist() == list(range(1, 9))


class TestSchema:
    def test_sampled_outputs_validate(self, validator, capsys, tmp_path):
        f = tmp_path / "mult7.dfset"
        save_dfset(f, range(7, 1001, 7), 1000)
        cases = [
            ("intersect", "check", "--poly", "(x^3-19)(x^2+x+1)", "--prime-bound", "50", "--depth", "6"),
            ("aux", "build", "--poly", "x^2", "--d", "12"),
            ("expsum", "complete", "--poly", "x^2", "-a", "1", "-q", "7"),
            ("circle", "increment", "--set", str(f), "--q", "7", "--K", "1", "--theta", "0.5"),
            ("sets", "search", "--q", "5", "--k", "2", "--mode", "exhaustive"),
        ]
        for argv in cases:
            code, out = run_cli(capsys, *argv)
            assert code == 0, argv
            payload = json.loads(out)
            validator.validate(payload)

    def test_search_bound_is_the_size_once_exhausted(self, validator, capsys):
        # q = 85 exhausts; a budget of 500 nodes at q = 305 (which needs 13000)
        # does not, and reports 1 + the clique cover of the non-neighbours of 0
        for argv, optimal in ((("--q", "85"), True), (("--q", "305", "--budget", "500"), False)):
            code, out = run_cli(capsys, "sets", "search", "--k", "2", *argv)
            assert code == 0
            payload = json.loads(out)
            validator.validate(payload)
            assert payload["optimal"] is optimal
            assert (payload["upper_bound"] == payload["size"]) is optimal
            assert payload["upper_bound"] >= payload["size"]

    @pytest.mark.parametrize(
        "argv, exponent",
        [(("--q", "205"), 0.7334), (("--q", "12"), None), (("--q", "1000", "--budget", "2000"), None)],
        ids=["q205", "q12", "q1000"],
    )
    def test_search_exponent_only_where_a_lift_exists(self, validator, capsys, argv, exponent):
        # the Ruzsa lift needs square-free q: 12 = 2^2 * 3 and 1000 = 2^3 * 5^3 have none
        code, out = run_cli(capsys, "sets", "search", "--k", "2", *argv)
        assert code == 0
        payload = json.loads(out)
        validator.validate(payload)
        if exponent is None:
            assert payload["exponent"] is None
            assert payload["exponent_reason"] == (
                f"q = {payload['q']} is not square-free, so no Ruzsa lift exists"
            )
        else:
            assert payload["exponent"] == pytest.approx(exponent, abs=1e-4)
            assert "exponent_reason" not in payload

    def test_selftest_quick_validates(self, validator, capsys):
        # criterion 12 inside selftest runs the search to its target at q = 205
        code, out = run_cli(capsys, "selftest", "--quick")
        assert code == 0
        payload = json.loads(out)
        validator.validate(payload)
        assert payload["all_passed"]


class TestSetIO:
    def test_runs(self):
        assert runs_of([1, 2, 3, 7, 9, 10]) == [(1, 3), (7, 1), (9, 2)]

    def test_round_trip(self, tmp_path):
        members = [2, 3, 4, 10, 50, 51]
        f = tmp_path / "a.dfset"
        save_dfset(f, members, 60)
        got, N = load_set(f)
        assert got == members and N == 60

    def test_plain_format(self, tmp_path):
        f = tmp_path / "plain.txt"
        f.write_text("# comment\n3\n1\n2\n")
        got, N = load_set(f)
        assert got == [1, 2, 3] and N is None


class TestPlumbing:
    def test_output_file_and_seed(self, tmp_path, capsys):
        out_path = tmp_path / "res.json"
        code, _ = run_cli(
            capsys,
            "--seed", "7",
            "--output", str(out_path),
            "sets", "search", "--q", "41", "--k", "2", "--budget", "20000",
        )
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert payload["size"] >= 1

    def test_seed_defaults_to_zero(self, capsys):
        # from q = 13 on there are more than 10 units mod q, so the audit
        # samples them and the seed shows
        argv = ["expsum", "audit-sqrt", "--poly", "x^3", "--qmax", "30", "--Y", "10"]
        outs = [run_cli(capsys, *pre, *argv) for pre in ((), ("--seed", "0"), ("--seed", "7"))]
        assert [code for code, _ in outs] == [0, 0, 0]
        assert outs[0][1] == outs[1][1] != outs[2][1]

    def test_environment_sets_no_option(self):
        argv = [sys.executable, "-m", "ilab", "sets", "search", "--q", "41", "--k", "2",
                "--budget", "50"]
        plain = subprocess.run(argv, capture_output=True, text=True, env=subprocess_env())
        seeded = subprocess.run(
            argv, capture_output=True, text=True, env=subprocess_env(ILAB_SEED="7")
        )
        assert plain.returncode == seeded.returncode == 0
        assert plain.stdout == seeded.stdout

    def test_csv_commands(self, capsys):
        code, out = run_cli(capsys, "sieve", "count", "--poly", "x^2", "--Y", "5", "--X", "1000")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "X,exact,main,rel_err"
        assert lines[1].startswith("1000,")

    def test_density_table_csv(self, capsys):
        code, out = run_cli(capsys, "sets", "table", "--gens", "x^2", "--Ns", "100,1000")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "N,method,size,density,fs_bound_shape,exp_bound_shape"
        assert len(lines) == 5  # header + (greedy, trivial) x 2

    def test_density_table_has_no_methods_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sets", "table", "--gens", "x^2", "--Ns", "100", "--methods", "greedy"])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert "unrecognized arguments: --methods greedy" in captured.err

    def test_exhaustive_search_proves_alpha_past_q32(self, capsys):
        code, out = run_cli(capsys, "sets", "search", "--q", "40", "--k", "2",
                            "--mode", "exhaustive")
        payload = json.loads(out)
        assert code == 0
        assert (payload["optimal"], payload["size"], payload["upper_bound"]) == (True, 7, 7)

    def test_density_table_blank_where_shape_undefined(self, capsys):
        # log log log log 10 is undefined: the fs shape is a blank field, not nan
        code, out = run_cli(capsys, "sets", "table", "--gens", "x^2", "--Ns", "10")
        assert code == 0
        assert "nan" not in out.lower()
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rows and all(r["fs_bound_shape"] == "" for r in rows)

    def test_remaining_subcommands_run(self, capsys, tmp_path):
        f = tmp_path / "b.dfset"
        save_dfset(f, [5 * i for i in range(1, 21)], 100)
        cases = [
            ("aux", "audit", "--poly", "(x-1)(x-2)", "--dmax", "50"),
            ("sieve", "table", "--poly", "x^3", "--Y", "10"),
            ("expsum", "major", "--poly", "x^2", "-a", "1", "-q", "3",
             "--beta", "0", "--X", "10000", "--Y", "10"),
            ("expsum", "major", "--poly", "x^2", "-a", "1", "-q", "3",
             "--beta", "0.0001", "--X", "1000", "--Y", "10"),
            ("expsum", "moment", "--poly", "x^2", "--L", "3000", "--m", "6", "--Y", "10"),
            ("circle", "dft", "--set", str(f)),
            ("circle", "arcs", "--N", "1000", "--K", "5", "--Q", "9", "--t", "333"),
            ("sets", "greedy", "--gens", "x^2", "--N", "500"),
            ("sets", "trivial", "--N", "10000", "--k", "2"),
            ("sets", "ruzsa", "--B", "0,2", "--q", "5", "--k", "2", "--N", "1000"),
        ]
        for argv in cases:
            code, out = run_cli(capsys, *argv)
            assert code == 0, argv
            assert "command" in json.loads(out), argv

    def test_aux_depth_reaches_the_family(self, capsys):
        # the sextic certifies p = 2 only from precision 11 on
        sextic = "(x^2-13)*(x^2-17)*(x^2-221)"
        code, out = run_cli(capsys, "aux", "build", "--poly", sextic, "--d", "12", "--depth", "12")
        fam = AuxiliaryFamily(parse_poly(sextic), 12)
        assert code == 0
        assert (json.loads(out)["r_d"], json.loads(out)["lambda_d"]) == (fam.r_of(12), fam.lam(12))
        assert main(["aux", "build", "--poly", sextic, "--d", "12"]) == 2

    def test_circle_dft_reads_dfset_N(self, capsys, tmp_path):
        f = tmp_path / "c.dfset"
        save_dfset(f, range(1, 65), 64)
        code, out = run_cli(capsys, "circle", "dft", "--set", str(f))
        payload = json.loads(out)
        assert code == 0 and payload["N"] == 64
        assert payload["f0"] == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "N, step", [(64, 8), (60, 5), (64, 3)], ids=["64-by-8", "60-by-5", "64-by-3"]
    )
    def test_circle_dft_top_frequencies_keep_tie_order(self, capsys, tmp_path, N, step):
        # when step | N the magnitudes tie exactly at the multiples of N/step
        # and at the zeros, and tied frequencies must stay in ascending t
        # order; 64-by-3 has near-ties at t and N - t
        members = list(range(step, N + 1, step))
        f = tmp_path / "m.dfset"
        save_dfset(f, members, N)
        code, out = run_cli(capsys, "circle", "dft", "--set", str(f))
        mags = np.abs(dft_indicator(members, N).values)
        expected = sorted(range(1, N), key=lambda t: -mags[t])[:8]
        assert code == 0
        assert [row["t"] for row in json.loads(out)["top_frequencies"]] == expected

    def test_audit_sqrt_csv_columns(self, capsys, tmp_path):
        path = tmp_path / "audit.csv"
        code, _ = run_cli(
            capsys,
            "expsum", "audit-sqrt", "--poly", "x^2", "--qmax", "12", "--Y", "12",
            "--csv", str(path),
        )
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines[0] == "q,a,abs_sum,ratio_sqrt,omega_q,class_tags"
        assert len(lines) > 12


class TestDeterminism:
    def test_repeat_runs_byte_identical(self, tmp_path):
        outs = []
        for threads in ("1", "8"):
            proc = subprocess.run(
                [sys.executable, "-m", "ilab", "sets", "search", "--q", "61",
                 "--k", "2", "--budget", "50000"],
                capture_output=True,
                text=True,
                env=subprocess_env(ILAB_THREADS=threads),
            )
            assert proc.returncode == 0
            outs.append(proc.stdout)
        assert outs[0] == outs[1]

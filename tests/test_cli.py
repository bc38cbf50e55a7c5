"""CLI surface: subcommands, exit codes, JSON schema conformance, set-file
round trips, and config plumbing."""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ilab.circle import dft_indicator
from ilab.cli import build_parser, main
from ilab.setio import load_set, runs_of, save_dfset

REPO = Path(__file__).resolve().parent.parent
SCHEMA_PATH = REPO / "schemas" / "cli_output.schema.json"


def subprocess_env(**extra: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    env.update(extra)
    return env


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
        monkeypatch.setattr("ilab.sieve.COUNT_NODE_LIMIT", 1000)
        code = main(["sieve", "count", "--poly", "x^2", "--Y", "66", "--X", "10000000"])
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
        # g' = 2048x vanishes at every residue mod 2^11; above the limit the
        # modulus 2^12 takes the lifting route, whose lift from 2^9 asks for
        # 512 * 2 = 1024 residues
        monkeypatch.setattr("ilab.padic.ROOTS_BRUTE_LIMIT", 1000)
        code = main(["sieve", "table", "--poly", "1024x^2", "--Y", "2"])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err.startswith("resource guard: ") and captured.err.count("\n") == 1
        assert "capped at 1000 residues (512 roots mod 2^9)" in captured.err

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
            (("circle", "increment", "--set", "{ten}", "--q", "11", "--K", "1", "--theta", "0.5"),
             "q must not exceed N"),
        ],
        ids=["missing-set", "search-q0", "search-q1", "search-k0", "greedy-N0",
             "ruzsa-N0", "unreduced-a-q", "ruzsa-q1", "trivial-k-1", "trivial-k0", "trivial-huge-k",
             "dft-empty-header", "dft-N0", "intersect-depth0", "increment-q-past-L"],
    )
    def test_bad_input_exits_two_with_one_line(self, capsys, tmp_path, argv, needle):
        save_dfset(tmp_path / "empty.dfset", [], 0)
        save_dfset(tmp_path / "ten.dfset", [1, 2, 5], 10)
        files = {name: tmp_path / f"{name}.dfset" for name in ("missing", "empty", "ten")}
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

    def test_selftest_quick_validates(self, validator, capsys):
        # criterion 12 inside selftest exercises the warm-started search
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

    def test_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "ilab.cfg"
        out_path = tmp_path / "o.json"
        cfg.write_text(f"seed=3\noutput={out_path}\n# comment\n")
        code, _ = run_cli(capsys, "--config", str(cfg), "aux", "build", "--poly", "x^2", "--d", "4")
        assert code == 0
        assert json.loads(out_path.read_text())["lambda_d"] == 16

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

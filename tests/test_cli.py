"""End-to-end command-line behavior."""

import json
import subprocess
import sys
from importlib import resources


from sfpc.cli import main

PROGRAMS = resources.files("sfpc").joinpath("programs")


def path(name: str) -> str:
    return str(PROGRAMS.joinpath(f"{name}.sfpc"))


def run_main(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_ok(self, capsys):
        code, out, _ = run_main(capsys, "check", path("two_point_posterior"))
        assert code == 0
        assert json.loads(out) == {"mode": "p", "type": "bool"}

    def test_type_error_exit_one(self, capsys, tmp_path):
        bad = tmp_path / "bad.sfpc"
        bad.write_text("sample(1.0)")
        code, out, err = run_main(capsys, "check", str(bad))
        assert code == 1 and out == ""
        diag = json.loads(err)
        assert diag["error"] == "type"

    def test_syntax_error_has_position(self, capsys, tmp_path):
        bad = tmp_path / "bad.sfpc"
        bad.write_text("let x = in")
        code, _, err = run_main(capsys, "check", str(bad))
        diag = json.loads(err)
        assert code == 1 and diag["error"] == "syntax"
        assert diag["line"] == 1 and diag["col"] == 9

    def test_every_corpus_program_checks(self, capsys):
        from sfpc import corpus

        for name in corpus.ALL:
            code, _, _ = run_main(capsys, "check", path(name))
            assert code == 0, name

    def test_deep_nesting_reports_cleanly(self):
        proc = subprocess.run(
            [sys.executable, "-m", "sfpc.cli", "check", "-"],
            input="(" * 400 + "1.0" + ")" * 400, capture_output=True, text=True,
        )
        assert proc.returncode == 1 and proc.stdout == ""
        err = json.loads(proc.stderr)
        assert (err["error"], err["line"], err["col"]) == ("syntax", 1, 101)

    def test_missing_file_reports_cleanly(self, capsys):
        code, out, err = run_main(capsys, "check", "/no/such/file.sfpc")
        assert code == 1 and out == ""
        assert "error" in json.loads(err)


class TestNorm:
    def test_exact_two_point(self, capsys):
        code, out, _ = run_main(
            capsys, "norm", path("two_point_posterior"), "--backend", "exact"
        )
        assert code == 0
        got = json.loads(out)
        assert got["tag"] == 0
        assert abs(got["evidence"] - 2.75) <= 1e-12
        assert got["posterior"]["kind"] == "finite"
        atoms = dict((k, v) for k, v in got["posterior"]["atoms"])
        assert abs(atoms["true"] - 5.0 / 11.0) <= 1e-12
        assert abs(atoms["false"] - 6.0 / 11.0) <= 1e-12

    def test_accepts_norm_wrapped_program(self, capsys):
        code, out, _ = run_main(
            capsys, "norm", path("gaussian_conditioning_norm"),
            "--backend", "quad", "--nodes", "128", "--doublings", "1",
        )
        assert code == 0
        assert json.loads(out)["tag"] == 0

    def test_zero_evidence_tag(self, capsys):
        code, out, _ = run_main(capsys, "norm", path("hard_reject"))
        assert code == 0 and json.loads(out)["tag"] == 1

    def test_mc_reports_stderr(self, capsys):
        code, out, _ = run_main(
            capsys, "norm", path("two_point_posterior"),
            "--backend", "mc", "--trials", "2000", "--seed", "0",
        )
        got = json.loads(out)
        assert got["tag"] == 0 and got["stderr"] > 0
        assert got["posterior"]["kind"] == "empirical"

    def test_infinite_evidence_is_strict_json(self):
        def reject(name):
            raise ValueError(f"not JSON: {name}")

        for backend in ("exact", "quad", "mc"):
            proc = subprocess.run(
                [sys.executable, "-m", "sfpc.cli", "norm", "-", "--backend", backend,
                 "--trials", "100", "--nodes", "4", "--doublings", "1"],
                input="score(exp(1000.0)); return(*)", capture_output=True, text=True,
            )
            assert proc.returncode == 0 and proc.stderr == "", backend
            assert json.loads(proc.stdout, parse_constant=reject) == {"tag": 2}

    def test_not_enumerable_is_an_error(self, capsys):
        code, _, err = run_main(
            capsys, "norm", path("gaussian_conditioning"), "--backend", "exact"
        )
        assert code == 1
        assert json.loads(err)["error"] == "NotEnumerable"


class TestRun:
    def test_score_fusion_traces(self, capsys):
        code, out, _ = run_main(
            capsys, "run", path("score_chain"), "--trials", "3", "--seed", "0"
        )
        assert code == 0
        lines = [json.loads(line) for line in out.splitlines()]
        assert len(lines) == 3
        assert all(line == lines[0] for line in lines)
        assert lines[0]["weight"] == 7.0 * 6.1
        assert lines[0]["value"] == {"unit": True}
        assert lines[0]["steps"] > 0

    def test_deterministic_norm_program(self, capsys):
        code, out, _ = run_main(
            capsys, "run", path("gaussian_conditioning_norm"),
            "--backend", "mc", "--trials", "1", "--seed", "0",
        )
        assert code == 0
        line = json.loads(out)
        assert line["weight"] == 1.0
        assert line["value"]["inj"][0] == 0  # normalization succeeded


class TestEnumerate:
    def test_two_point_table(self, capsys):
        code, out, _ = run_main(capsys, "enumerate", path("two_point_posterior"))
        assert code == 0
        lines = [json.loads(line) for line in out.splitlines()]
        assert lines == [
            {"prob": 0.75, "weight": 2.0, "value": {"inj": [0, {"unit": True}]}},
            {"prob": 0.25, "weight": 5.0, "value": {"inj": [1, {"unit": True}]}},
        ]


class TestEqcheck:
    def test_single_case(self, capsys):
        code, out, _ = run_main(
            capsys, "eqcheck", "--case", "score-fusion", "--trials", "2000"
        )
        assert code == 0
        lines = [json.loads(line) for line in out.splitlines()]
        assert {line["mode"] for line in lines} == {"exact", "statistical"}
        assert all(line["ok"] for line in lines)

    def test_sentinel_reports_expected_fail(self, capsys):
        code, out, _ = run_main(
            capsys, "eqcheck", "--case", "sentinel-unequal", "--trials", "2000"
        )
        assert code == 0
        line = json.loads(out)
        assert line["verdict"] == "FAIL" and line["expected"] == "FAIL" and line["ok"]

    def test_unknown_case_is_usage_like_error(self, capsys):
        code, _, err = run_main(capsys, "eqcheck", "--case", "nope")
        assert code == 1 and "unknown cases" in json.loads(err)["message"]

    def test_parallel_matches_sequential(self):
        base = [sys.executable, "-m", "sfpc.cli", "eqcheck", "--trials", "2000",
                "--case", "monad-right-unit", "--case", "score-fusion"]
        seq = subprocess.run(base + ["--jobs", "1"], capture_output=True, text=True)
        par = subprocess.run(base + ["--jobs", "2"], capture_output=True, text=True)
        assert seq.returncode == par.returncode == 0
        assert seq.stdout == par.stdout


class TestDeterminismAndSeeds:
    def test_byte_identical_stdout(self):
        cmd = [sys.executable, "-m", "sfpc.cli", "norm", path("two_point_posterior"),
               "--backend", "mc", "--trials", "3000", "--seed", "7"]
        a = subprocess.run(cmd, capture_output=True, text=True)
        b = subprocess.run(cmd, capture_output=True, text=True)
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout

    def test_env_seed_and_flag_precedence(self):
        base = [sys.executable, "-m", "sfpc.cli", "norm", path("two_point_posterior"),
                "--backend", "mc", "--trials", "1000"]
        env_run = subprocess.run(base, capture_output=True, text=True,
                                 env=_with_seed("5"))
        flag_run = subprocess.run(base + ["--seed", "5"], capture_output=True, text=True)
        default_run = subprocess.run(base, capture_output=True, text=True,
                                     env=_with_seed(None))
        override = subprocess.run(base + ["--seed", "0"], capture_output=True,
                                  text=True, env=_with_seed("5"))
        assert env_run.stdout == flag_run.stdout
        assert default_run.stdout == override.stdout
        assert env_run.stdout != default_run.stdout

    def test_usage_error_exit_two(self):
        proc = subprocess.run(
            [sys.executable, "-m", "sfpc.cli", "frobnicate"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2


def _with_seed(value):
    import os

    env = dict(os.environ)
    env.pop("SFPC_SEED", None)
    if value is not None:
        env["SFPC_SEED"] = value
    return env

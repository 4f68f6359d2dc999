"""Command-line interface: commands, formats, exit codes, determinism."""

import json
import os
import subprocess
import sys

import pytest

import lieinv
from lieinv.cli import main

SO3 = {
    "dim": 3,
    "brackets": [
        {"i": 1, "j": 2, "terms": [{"k": 3, "c": "1"}]},
        {"i": 2, "j": 3, "terms": [{"k": 1, "c": "1"}]},
        {"i": 1, "j": 3, "terms": [{"k": 2, "c": "-1"}]},
    ],
}

BROKEN = {
    "dim": 3,
    "brackets": [
        {"i": 1, "j": 2, "terms": [{"k": 2, "c": "1"}]},
        {"i": 1, "j": 3, "terms": [{"k": 3, "c": "1"}]},
        {"i": 2, "j": 3, "terms": [{"k": 1, "c": "1"}]},
    ],
}


@pytest.fixture
def algebra_file(tmp_path):
    def write(payload, name="alg.json"):
        f = tmp_path / name
        f.write_text(json.dumps(payload))
        return str(f)
    return write


class TestValidate:
    def test_valid(self, algebra_file, capsys):
        assert main(["validate", algebra_file(SO3)]) == 0
        assert "valid" in capsys.readouterr().out

    def test_abelian(self, algebra_file):
        assert main(["validate", algebra_file({"dim": 3, "brackets": []})]) == 0

    def test_broken_jacobi(self, algebra_file, capsys):
        assert main(["validate", algebra_file(BROKEN)]) == 1
        out = capsys.readouterr().out
        assert "(1,2,3)" in out  # failing quadruple printed

    def test_missing_file(self, capsys):
        assert main(["validate", "/nonexistent.json"]) == 2

    @pytest.mark.parametrize("payload", [
        {"dim": 2, "brackets": [{"i": 1, "j": 2,
                                 "terms": [{"k": 1, "c": "1/0"}]}]},
        [SO3],
    ], ids=["zero-denominator", "json-array"])
    def test_malformed_algebra_is_one_error_line(self, algebra_file, capsys,
                                                 payload):
        assert main(["validate", algebra_file(payload)]) == 2
        assert len(capsys.readouterr().err.strip().splitlines()) == 1


class TestInvariants:
    def test_transitive_text(self, capsys):
        assert main(["invariants", "g2", "--pipeline", "transitive"]) == 0
        out = capsys.readouterr().out
        assert "v_1" in out and "verified: True" in out

    def test_transitive_csv_two_rows(self, capsys):
        assert main(["invariants", "2g1", "--pipeline", "transitive",
                     "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3  # header + v_1 + v_12

    def test_free_json(self, capsys):
        assert main(["invariants", "g3_7", "--pipeline", "free", "--m", "1",
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["pipeline"] == "I"
        assert payload["verified"] is True

    def test_params_flag(self, capsys):
        assert main(["invariants", "g3_4", "--pipeline", "transitive",
                     "--params", "h=-1/3", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["params"] == {"h": "-1/3"}

    def test_bad_param_rejected(self, capsys):
        assert main(["invariants", "g3_4", "--pipeline", "transitive",
                     "--params", "h=1"]) == 1

    def test_unknown_algebra(self, capsys):
        assert main(["invariants", "g99", "--pipeline", "transitive"]) == 1

    def test_zero_denominator_param_is_one_error_line(self, capsys):
        assert main(["invariants", "g3_4", "--pipeline", "free",
                     "--params", "h=1/0"]) == 2
        assert len(capsys.readouterr().err.strip().splitlines()) == 1


class TestCovariant:
    def test_to(self, tmp_path, capsys):
        f = tmp_path / "pde.txt"
        f.write_text("coords: x; dep: u\nlhs: u_xx + u_x^2\n")
        assert main(["covariant", "--to", str(f)]) == 0
        out = capsys.readouterr().out
        assert "degree: 3" in out

    def test_from(self, tmp_path, capsys):
        f = tmp_path / "cov.txt"
        f.write_text("coords: x, y, u; dep: w\n"
                     "lhs: 2*w_x*w_y + 3*w_x*w_u + w_u^2\n")
        assert main(["covariant", "--from", str(f)]) == 0
        out = capsys.readouterr().out
        assert "rescale-invariant: yes" in out

    def test_from_rejects_non_invariant(self, tmp_path, capsys):
        f = tmp_path / "bad.txt"
        f.write_text("coords: x, u; dep: w\nlhs: w_xx\n")
        assert main(["covariant", "--from", str(f)]) == 1
        assert "NotRescaleInvariant" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--points", "0"], ["--tol", "1e9"]])
    def test_from_refuses_vacuous_oracle(self, tmp_path, capsys, flags):
        # w_xx*w_u is not rescale-invariant; a check at zero points or with
        # an unbounded tolerance would let it through
        f = tmp_path / "bad.txt"
        f.write_text("coords: x, u; dep: w\nlhs: w_xx*w_u\n")
        assert main(["covariant", "--from", str(f)] + flags) == 2
        captured = capsys.readouterr()
        assert "rescale-invariant" not in captured.out
        assert len(captured.err.strip().splitlines()) == 1

    @pytest.mark.parametrize("lhs", [
        "u_xx + x^(1/0)",
        "(" * 3000 + "u_xx" + ")" * 3000,
        "u_xx + x^(10^50)",
    ], ids=["zero-division", "deep-nesting", "huge-exponent"])
    def test_malformed_input_is_one_error_line(self, tmp_path, capsys, lhs):
        f = tmp_path / "pde.txt"
        f.write_text(f"coords: x, y; dep: u\nlhs: {lhs}\n")
        assert main(["covariant", "--to", str(f)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error [ParseError]")

    def test_from_empty_coords_is_one_error_line(self, tmp_path, capsys):
        f = tmp_path / "cov.txt"
        f.write_text("coords: ; dep: u; lhs: u\n")
        assert main(["covariant", "--from", str(f)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error [ParseError]")

    def test_to_unsampleable_is_one_error_line(self, tmp_path, capsys):
        # sin(exp(800 + x + u)) is sin(inf) at every point
        f = tmp_path / "pde.txt"
        f.write_text("coords: x; dep: u\n"
                     "lhs: u_xx + sin(exp(400+x)*exp(400+u))\n")
        assert main(["covariant", "--to", str(f)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error [Unsampleable]")


class TestReproduce:
    def test_2d_transitive(self, capsys):
        assert main(["reproduce", "2d-transitive"]) == 0
        out = capsys.readouterr().out
        assert out.count("[PASS]") == 2

    def test_param_override(self, capsys):
        assert main(["reproduce", "2d-transitive",
                     "--params", "g3_4:h=1/3"]) == 0

    def test_zero_denominator_param_is_one_error_line(self, capsys):
        assert main(["reproduce", "--params", "g3_4:h=1/0"]) == 2
        assert len(capsys.readouterr().err.strip().splitlines()) == 1

    def test_json_determinism(self, capsys):
        assert main(["reproduce", "1d", "--seed", "7",
                     "--format", "json"]) == 0
        first = capsys.readouterr().out
        assert main(["reproduce", "1d", "--seed", "7",
                     "--format", "json"]) == 0
        assert capsys.readouterr().out == first

    def test_env_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("LIEINV_SEED", "7")
        assert main(["reproduce", "1d", "--format", "json"]) == 0
        env_out = capsys.readouterr().out
        monkeypatch.delenv("LIEINV_SEED")
        assert main(["reproduce", "1d", "--seed", "7",
                     "--format", "json"]) == 0
        assert capsys.readouterr().out == env_out

    def test_unknown_table(self, capsys):
        assert main(["reproduce", "9d"]) == 2


class TestModuleEntry:
    def test_python_m_help(self):
        src = os.path.dirname(os.path.dirname(lieinv.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-m", "lieinv", "--help"],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.startswith("usage: lieinv")

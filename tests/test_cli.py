import json
import subprocess
import sys

import numpy as np
import pytest

from tpass import cli, game
from tpass.cli import main
from tpass.decompose import compose
from tpass.errors import TpassError
from tpass.gamefile import dumps_game, load_game

DEMO_TPASS = '{"kind": "tpass", "A": [[0, 1], [-1, 0]], "pi": ["1/2", "3/4"], "rho": [0.5, 0.75]}'
DEMO_TPASS_DECIMAL = '{"kind": "tpass", "A": [[0, 1], [-1, 0]], "pi": [0.5, 0.75], "rho": [0.5, 0.75]}'
DERIVED_BIMATRIX = '{"kind": "bimatrix", "B": [[0.5, 1.5], [-0.25, 0.75]], "C": [[0.5, -0.25], [1.5, 0.75]]}'
NEAR_MISS_BIMATRIX = '{"kind": "bimatrix", "B": [["1/2", "3/4"], ["-1/4", "3/4"]], "C": [["1/2", "-1/4"], ["3/4", "3/4"]]}'
PENNIES_BIMATRIX = '{"kind": "bimatrix", "B": [[1, -1], [-1, 1]], "C": [[-1, 1], [1, -1]]}'
COORDINATION = '{"kind": "bimatrix", "B": [[1, 0], [0, 1]], "C": [[1, 0], [0, 1]]}'


@pytest.fixture
def write(tmp_path):
    def _write(text, name="game.json"):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    return _write


class TestSolve:
    def test_demo_game_text(self, write, capsys):
        code = main(["solve", write(DEMO_TPASS)])
        out = capsys.readouterr().out
        assert code == 0
        assert "p* = [1, 0]" in out
        assert "q* = [1, 0]" in out
        assert "alpha = 0.5" in out
        assert "beta = 0.5" in out

    def test_json_schema_is_stable(self, write, capsys):
        code = main(["solve", write(DEMO_TPASS), "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert sorted(payload) == [
            "alpha", "beta", "checks", "objective", "p", "q", "residuals", "status",
        ]
        assert payload["status"] == "optimal"
        assert payload["checks"]["is_equilibrium"] is True
        assert payload["checks"]["oracle"] is True
        assert sorted(payload["residuals"]) == [
            "col_violation", "row_violation", "simplex_violation", "slackness",
        ]

    def test_joint_method_matches(self, write, capsys):
        code = main(["solve", write(DEMO_TPASS), "--method", "joint", "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["p"] == [1.0, 0.0]
        assert payload["q"] == [1.0, 0.0]
        assert abs(payload["objective"]) <= 1e-12

    def test_fraction_and_decimal_files_print_identically(self, write, capsys):
        code_a = main(["solve", write(DEMO_TPASS, "a.json")])
        out_a = capsys.readouterr().out
        code_b = main(["solve", write(DEMO_TPASS_DECIMAL, "b.json")])
        out_b = capsys.readouterr().out
        assert code_a == code_b == 0
        assert out_a == out_b

    def test_bimatrix_input_is_decomposed(self, write, capsys):
        code = main(["solve", write(DERIVED_BIMATRIX)])
        captured = capsys.readouterr()
        assert code == 0
        assert "decomposed" in captured.err
        assert "alpha = 0.5" in captured.out

    def test_non_separable_bimatrix_exits_1(self, write, capsys):
        code = main(["solve", write(NEAR_MISS_BIMATRIX)])
        assert code == 1
        assert "not additively separable" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve", "decompose"])
    def test_bare_tpass_error_exits_3(self, write, capsys, monkeypatch, command):
        # decompose's residual-bound check raises the base class itself
        def failing(bg, tol=None):
            raise TpassError("decomposition residual 1 exceeds bound 0")

        monkeypatch.setattr(cli, "decompose", failing)
        code = main([command, write(DERIVED_BIMATRIX)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err.startswith("error: decomposition residual")

    @pytest.mark.parametrize("method", ["primal", "joint"])
    def test_solve_certifies_once(self, write, capsys, monkeypatch, method):
        # every certificate builds one report; the printed residuals are
        # the solver's own report, not a second run
        made = []

        class Counted(game.EquilibriumReport):
            def __init__(self, *args):
                made.append(args)
                super().__init__(*args)

        monkeypatch.setattr(game, "EquilibriumReport", Counted)
        assert main(["solve", write(DEMO_TPASS), "--method", method]) == 0
        assert len(made) == 1

    def test_malformed_file_exits_2(self, write, capsys):
        code = main(["solve", write('{"kind": "tpass", "A": [[0, 1], [-1]], "pi": [0, 0], "rho": [0, 0]}')])
        assert code == 2
        assert "A[2]" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["solve", str(tmp_path / "absent.json")]) == 2


class TestBadTol:
    @pytest.fixture
    def files(self, tmp_path):
        """The random 3x3 game of seed 1, as a tpass file and as a bimatrix."""
        path = tmp_path / "game.json"
        assert main(["random", "-m", "3", "-n", "3", "--seed", "1", "-o", str(path)]) == 0
        bimatrix = tmp_path / "bimatrix.json"
        bimatrix.write_text(dumps_game(compose(load_game(path))), encoding="utf-8")
        return str(path), str(bimatrix)

    @pytest.mark.parametrize(
        "args",
        [
            ["solve", 0, "--tol", "-1"],
            ["solve", 0, "--method", "joint", "--tol", "0"],
            ["enumerate", 0, "--tol", "nan"],
            ["enumerate", 0, "--tol", "-1"],
            ["decompose", 1, "--tol", "nan"],
            ["verify", 0, "--p", "1,0,0", "--q", "1,0,0", "--tol", "inf"],
            ["solve", 0, "--tol", "inf"],
            ["enumerate", 0, "--tol", "inf"],
        ],
        ids=["solve-negative", "joint-zero", "enumerate-nan", "enumerate-negative", "decompose-nan",
             "verify-inf", "solve-inf", "enumerate-inf"],
    )
    def test_exits_2(self, files, capsys, args):
        args = [args[0], files[args[1]], *args[2:]]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: tol must be")


class TestVerify:
    def test_equilibrium_pair_exits_0(self, write, capsys):
        code = main(["verify", write(DEMO_TPASS), "--p", "1,0", "--q", "1,0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "verdict: equilibrium" in out

    def test_non_equilibrium_pair_exits_1(self, write, capsys):
        code = main(["verify", write(DEMO_TPASS), "--p", "0,1", "--q", "0,1"])
        out = capsys.readouterr().out
        assert code == 1
        assert "row violation 0.75" in out
        assert "verdict: not an equilibrium" in out

    def test_off_simplex_vector_exits_2(self, write, capsys):
        code = main(["verify", write(DEMO_TPASS), "--p", "0.6,0.5", "--q", "1,0"])
        assert code == 2

    def test_unparseable_vector_exits_2(self, write, capsys):
        code = main(["verify", write(DEMO_TPASS), "--p", "1,zebra", "--q", "1,0"])
        assert code == 2
        assert "--p[2]" in capsys.readouterr().err

    def test_fraction_vectors_accepted(self, write, capsys):
        code = main(["verify", write(DEMO_TPASS), "--p", "1/2,1/2", "--q", "1/2,1/2"])
        assert code == 1  # valid input, just not an equilibrium


class TestDecompose:
    def test_derived_matrices_recover_generators(self, write, capsys):
        code = main(["decompose", write(DERIVED_BIMATRIX)])
        out = capsys.readouterr().out
        assert code == 0
        assert "separable: yes" in out
        assert "pi  = [0.5, 0.75]" in out
        assert "rho = [0.5, 0.75]" in out

    def test_near_miss_exits_1_with_residual(self, write, capsys):
        code = main(["decompose", write(NEAR_MISS_BIMATRIX)])
        out = capsys.readouterr().out
        assert code == 1
        assert "tetrad residual 1.5" in out

    def test_trivial_1x1_game(self, write, capsys):
        code = main(["decompose", write('{"kind": "bimatrix", "B": [[2]], "C": [[3]]}')])
        assert code == 0

    def test_tpass_file_rejected(self, write, capsys):
        code = main(["decompose", write(DEMO_TPASS)])
        assert code == 2

    def test_json_format(self, write, capsys):
        code = main(["decompose", write(DERIVED_BIMATRIX), "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["separable"] is True
        assert payload["pi"] == [0.5, 0.75]


class TestEnumerate:
    def test_matching_pennies_single_line(self, write, capsys):
        code = main(["enumerate", write(PENNIES_BIMATRIX)])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("p = ") == 1
        assert "1 equilibrium(s) found" in out

    def test_coordination_three_lines(self, write, capsys):
        code = main(["enumerate", write(COORDINATION)])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("p = ") == 3

    def test_demo_game_single_equilibrium(self, write, capsys):
        code = main(["enumerate", write(DEMO_TPASS)])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("p = ") == 1
        assert "payoffs (0.5, 0.5)" in out

    def test_over_cap_exits_2(self, write, capsys):
        big = {"kind": "tpass", "A": [[0.0] * 6] * 6, "pi": [0.0] * 6, "rho": [0.0] * 6}
        code = main(["enumerate", write(json.dumps(big))])
        assert code == 2


class TestDemo:
    def test_pd_text(self, capsys):
        code = main(["demo", "pd"])
        out = capsys.readouterr().out
        assert code == 0
        assert "p* = [1, 0]" in out
        assert "(0.75, 0.75)" in out
        assert "tetrad residual 1.5" in out

    def test_pd_json(self, capsys):
        code = main(["demo", "pd", "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["equilibrium"]["alpha"] == 0.5
        assert payload["pareto_cell"]["payoffs"] == [0.75, 0.75]
        assert payload["near_miss"]["separable"] is False
        assert payload["near_miss"]["tetrad_residual"] == 1.5

    def test_unknown_demo_exits_2(self, capsys):
        assert main(["demo", "nope"]) == 2


class TestRandom:
    def test_same_seed_same_bytes(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert main(["random", "-m", "3", "-n", "2", "--seed", "5", "-o", str(a)]) == 0
        assert main(["random", "-m", "3", "-n", "2", "--seed", "5", "-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_trivial_sizes_work(self, tmp_path):
        path = tmp_path / "g.json"
        assert main(["random", "-m", "1", "-n", "1", "--seed", "1", "-o", str(path)]) == 0

    def test_generated_file_solves(self, tmp_path, capsys):
        path = tmp_path / "g.json"
        assert main(["random", "-m", "4", "-n", "3", "--seed", "9", "-o", str(path)]) == 0
        capsys.readouterr()
        assert main(["solve", str(path)]) == 0

    def test_bad_bounds_exit_2(self, capsys):
        assert main(["random", "-m", "2", "-n", "2", "--lo", "1", "--hi", "-1"]) == 2

    def test_unwritable_output_exits_3(self, tmp_path, capsys):
        target = tmp_path / "missing-dir" / "g.json"
        assert main(["random", "-m", "2", "-n", "2", "-o", str(target)]) == 3

    def test_stdout_default(self, capsys):
        assert main(["random", "-m", "2", "-n", "2", "--seed", "3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "tpass"


def test_module_entry_point_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "tpass", "demo", "pd"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "unique equilibrium" in proc.stdout

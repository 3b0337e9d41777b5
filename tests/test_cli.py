import argparse
import io
import json
import math
import subprocess
import sys
import traceback
import warnings
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tpass import cli, game, lp
from tpass.cli import main
from tpass.decompose import compose
from tpass.errors import TpassError
from tpass.gamefile import dumps_game, load_game, parse_game

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

    def test_joint_zero_optimum_is_positive_zero(self, write, capsys):
        path = write(DEMO_TPASS)
        assert main(["solve", path, "--method", "joint"]) == 0
        assert "objective = 0\n" in capsys.readouterr().out
        assert main(["solve", path, "--method", "joint", "--format", "json"]) == 0
        objective = json.loads(capsys.readouterr().out)["objective"]
        assert objective == 0.0 and math.copysign(1.0, objective) == 1.0

    def test_fraction_and_decimal_files_print_identically(self, write, capsys):
        code_a = main(["solve", write(DEMO_TPASS, "a.json")])
        out_a = capsys.readouterr().out
        code_b = main(["solve", write(DEMO_TPASS_DECIMAL, "b.json")])
        out_b = capsys.readouterr().out
        assert code_a == code_b == 0
        assert out_a == out_b

    def test_over_cap_game_skips_the_cross_check(self, write, capsys):
        six = dumps_game(game.random_tpass(6, 6, -1.0, 1.0, seed=6))
        assert main(["solve", write(six)]) == 0
        assert "oracle cross-check: skipped (size over cap)\n" in capsys.readouterr().out

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

    def test_refused_lp_solution_exits_3(self, write, capsys, monkeypatch):
        # every pair of this constant game is an equilibrium, and this one
        # passes the certificate, but with the 2e9 offsets its row gap reads
        # -2.4e-7, so the joint optimum is beyond 2 tol
        constant = '{"kind": "tpass", "A": [[-1.9e9, -1.9e9], [-1.9e9, -1.9e9]], ' \
                   '"pi": [2e9, 2e9], "rho": [1e8, 1e8]}'
        monkeypatch.setattr(lp, "solve", lambda model: lp.LpSolution(
            lp.OPTIMAL, np.array([1.0, 1.0]), 1.0, np.array([1.0, 2.0]), 1))
        code = main(["solve", write(constant), "--method", "joint"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.startswith("solver failure: joint LP optimum 2.38e-07 is nonzero")

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
        # nesting past the JSON decoder's recursion limit
        assert main(["solve", write("[" * 1000 + "]" * 1000)]) == 2
        assert capsys.readouterr().err.startswith("error: invalid JSON")

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["solve", str(tmp_path / "absent.json")]) == 2

    def test_file_that_is_not_utf8_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(b'{"kind": "tpass", "A": [[0\xff]], "pi": [0], "rho": [0]}')
        assert main(["solve", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("entry", ["1" + "0" * 399, '"1' + "0" * 399 + '/3"', "1" + "0" * 5000],
                             ids=["integer", "fraction", "beyond-digit-limit"])
    def test_oversized_number_exits_2(self, write, capsys, entry):
        text = '{"kind": "tpass", "A": [[%s]], "pi": [0], "rho": [0]}' % entry
        assert main(["solve", write(text)]) == 2
        assert capsys.readouterr().err.startswith("error: ")


    @pytest.mark.parametrize("args", [["solve"], ["verify", "--p", "1", "--q", "1,0"]],
                             ids=["solve", "verify"])
    def test_overflowing_payoffs_exit_2(self, write, capsys, args):
        path = write('{"kind": "tpass", "A": [[1e308, 0]], "pi": [1e308], "rho": [0, 0]}')
        assert main([args[0], path, *args[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: payoffs overflow")

    # a constant-sum game whose entries are finite but whose B + C is not
    OVERFLOWING_SUM = ('{"kind": "bimatrix", "B": [[1e308, 1e308], [1e308, 1e308]], '
                       '"C": [[1e308, 1e308], [1e308, 1e308]]}')

    @pytest.mark.parametrize("command", ["decompose", "solve"])
    def test_overflowing_payoff_sum_exits_2(self, write, capsys, command):
        assert main([command, write(self.OVERFLOWING_SUM)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: payoffs overflow")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("command, line", [
        ("decompose", "separable: yes (tetrad residual 0)"),
        ("solve", "equilibrium check: pass"),
    ], ids=["decompose", "solve"])
    def test_separable_payoff_sum_at_the_float_limit_exits_0(self, write, capsys, command, line):
        # a 1 x 2 game is separable; its tetrad differences must not
        # overflow (pytest turns a RuntimeWarning into an error)
        path = write('{"kind": "bimatrix", "B": [[1e308, -1e308]], "C": [[0, 0]]}')
        assert main([command, path]) == 0
        assert line in capsys.readouterr().out

    def test_enumerate_never_forms_the_payoff_sum(self, write, capsys):
        assert main(["enumerate", write(self.OVERFLOWING_SUM)]) == 0
        assert "equilibrium(s) found" in capsys.readouterr().out

    @pytest.mark.parametrize("method, message", [
        ("primal", "primal LP solution failed the best-response check"),
        ("joint", "joint LP solution failed the best-response check"),
    ], ids=["primal", "joint"])
    def test_payoffs_at_the_float_limit_exit_3(self, write, method, message):
        # a valid game whose pair, from either route's normalized LP, misses
        # the absolute tol by roundoff of 1e308; in a child process, since
        # pytest turns overflow warnings into errors
        path = write('{"kind": "tpass", "A": [[1e308, -1e308], [-1e308, 1e308]], '
                     '"pi": [0, 0], "rho": [0, 0]}')
        proc = subprocess.run(
            [sys.executable, "-m", "tpass", "solve", path, "--method", method],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 3
        assert "Traceback" not in proc.stderr
        assert message in proc.stderr


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

    def test_bimatrix_input_prints_the_decompose_notice(self, write, capsys):
        code = main(["verify", write(DERIVED_BIMATRIX), "--p", "1,0", "--q", "1,0"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err.startswith("notice: bimatrix input decomposed to (A, pi, rho)")
        assert "verdict: equilibrium" in captured.out

    def test_off_simplex_vector_exits_2(self, write, capsys):
        code = main(["verify", write(DEMO_TPASS), "--p", "0.6,0.5", "--q", "1,0"])
        assert code == 2

    def test_unparseable_vector_exits_2(self, write, capsys):
        # --p and --q take the game file's number grammar and its messages
        for text, message in (("1,zebra", "--p[2]: cannot parse 'zebra' as a number"),
                              ("1/0,1", "--p[1]: fraction '1/0' has a zero denominator")):
            code = main(["verify", write(DEMO_TPASS), "--p", text, "--q", "1,0"])
            assert code == 2
            assert capsys.readouterr().err == f"error: {message}\n"

    def test_oversized_vector_entry_exits_2(self, write, capsys):
        code = main(["verify", write(DEMO_TPASS), "--p", "1e999,0", "--q", "1,0"])
        assert code == 2
        assert "--p[1]" in capsys.readouterr().err

    def test_fraction_vectors_accepted(self, write, capsys):
        code = main(["verify", write(DEMO_TPASS), "--p", "1/2,1/2", "--q", "1/2,1/2"])
        assert code == 1  # valid input, just not an equilibrium
        fraction = capsys.readouterr()
        assert main(["verify", write(DEMO_TPASS), "--p", "0.5,0.5", "--q", "1/2,1/2"]) == 1
        assert capsys.readouterr() == fraction


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

    def test_zero_tol_on_an_exactly_separable_game_exits_0(self, write, capsys):
        bimatrix = dumps_game(compose(game.random_tpass(3, 4, -1.0, 1.0, seed=3)))
        code = main(["decompose", write(bimatrix), "--tol", "0"])
        assert code == 0
        assert "separable: yes" in capsys.readouterr().out

    def test_json_format(self, write, capsys):
        code = main(["decompose", write(DERIVED_BIMATRIX), "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["separable"] is True
        assert payload["pi"] == [0.5, 0.75]

    def test_json_format_of_a_non_separable_game_exits_1(self, write, capsys):
        code = main(["decompose", write(NEAR_MISS_BIMATRIX), "--format", "json"])
        assert code == 1
        assert json.loads(capsys.readouterr().out) == {"separable": False, "tetrad_residual": 1.5}


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

    def test_over_cap_names_the_cli_limit(self, write, capsys):
        big = {"kind": "tpass", "A": [[0.0] * 6] * 6, "pi": [0.0] * 6, "rho": [0.0] * 6}
        assert main(["enumerate", write(json.dumps(big))]) == 2
        err = capsys.readouterr().err
        assert "5x5" in err
        assert "size_cap" not in err


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

    def test_overflowing_range_exits_2_naming_the_bounds(self, capsys):
        assert main(["random", "-m", "2", "-n", "2", "--lo=-1e308", "--hi=1e308"]) == 2
        assert "lo=-1e+308, hi=1e+308" in capsys.readouterr().err

    def test_huge_sizes_exit_2_naming_the_size(self, capsys):
        # numpy refuses this draw before it allocates anything
        assert main(["random", "-m", "10000000000", "-n", "10000000000"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: a 10000000000x10000000000 game is too large")

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


# placeholders in a drawn command line for the game file and the output
# path of tpass random
GAME, OUT = "<game>", "<out>"

_ENTRIES = st.one_of(
    st.integers(-2, 2),
    st.floats(),  # the float limits, subnormals, inf and nan
    st.sampled_from(["1/3", " -22/7 ", "7e-2", "1e400", "1/0", "x", "", True, None, [], {}]),
)
_TOLS = st.one_of(st.sampled_from(["1e-8", "1e-4", "1e-12", "1e308", "5e-324"]),
                  st.sampled_from(["0", "-1", "nan", "inf", "x"]))
_VECTORS = st.sampled_from(["1,0", "0.5,0.5", "1/2,1/2", "1", "", "x", "1e400,0", "nan,1", "-1,2"])


def _strategies(size):
    """--p or --q text: a pure or uniform strategy of ``size`` or a drawn one."""
    return st.one_of(
        st.just(",".join(["1"] + ["0"] * (size - 1))),
        st.just(",".join([f"1/{size}"] * size)),
        _VECTORS,
    )


@st.composite
def invocations(draw):
    """A game file's text and a tpass command line that reads it.

    The file is tpass or bimatrix, 0..5 per side, with extreme entries,
    number strings, non-numbers and missing keys; the command line is
    any subcommand with its options."""
    kind = draw(st.sampled_from(["tpass", "bimatrix"]))
    m, n = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    style = draw(st.sampled_from(["integer", "uniform", "scaled", "any"]))
    if style == "integer":
        entry = st.integers(-2, 2)
    elif style == "uniform":
        entry = st.floats(-1.0, 1.0)
    elif style == "scaled":
        # {-2..2} payoffs near the largest float and among the subnormals
        scale = draw(st.sampled_from([8.5e307, 1e-320, 5e-324]))
        entry = st.integers(-2, 2).map(lambda v: v * scale)
    else:
        entry = _ENTRIES

    def entries(size):
        return draw(st.lists(entry, min_size=size, max_size=size))

    if kind == "tpass":
        doc = {"kind": kind, "A": [entries(n) for _ in range(m)], "pi": entries(m), "rho": entries(n)}
    else:
        doc = {"kind": kind, "B": [entries(n) for _ in range(m)], "C": [entries(n) for _ in range(m)]}
    missing = draw(st.sampled_from([None] * 9 + sorted(doc)))
    if missing:
        del doc[missing]

    command = draw(st.sampled_from(["solve", "verify", "decompose", "enumerate", "demo", "random"]))
    if command == "demo":
        argv = [command, draw(st.sampled_from(["pd", "nope"]))]
    elif command == "random":
        size = st.integers(-1, 6).map(str)
        argv = [command, "-m", draw(size), "-n", draw(size), "--seed", str(draw(st.integers(-1, 3)))]
        argv += draw(st.sampled_from([[], ["--lo=1", "--hi=-1"], ["--lo=-1e308", "--hi=1e308"],
                                      ["--lo=-2", "--hi=2"]]))
        if draw(st.booleans()):
            argv += ["-o", OUT]
    else:
        argv = [command, GAME]
        if command == "verify":
            argv += [f"--p={draw(_strategies(m))}", f"--q={draw(_strategies(n))}"]
        if command == "solve" and draw(st.booleans()):
            argv.append("--method=joint")
        if draw(st.booleans()):
            argv.append(f"--tol={draw(_TOLS)}")
    if command in ("solve", "decompose", "demo") and draw(st.booleans()):
        argv.append("--format=json")
    return json.dumps(doc), argv


@pytest.fixture(scope="module")
def folder(tmp_path_factory):
    return tmp_path_factory.mktemp("cli-contract")


@given(invocation=invocations())
@settings(max_examples=500, derandomize=True, deadline=None)
# {-2..2} games at the float limits whose square oracle systems have a
# log-determinant that overflows or is log(0)
@example(invocation=(
    json.dumps({"kind": "bimatrix",
                "B": [[8.5e307, 0.0], [1.7e308, -8.5e307], [1.7e308, 8.5e307]],
                "C": [[1.7e308, -1.7e308], [8.5e307, 1.7e308], [-1.7e308, -8.5e307]]}),
    ["enumerate", GAME],
))
@example(invocation=(
    json.dumps({"kind": "bimatrix",
                "B": [[-5e-324, 0.0, -1e-323], [1e-323, 1e-323, -1e-323]],
                "C": [[1e-323, 0.0, -1e-323], [1e-323, 1e-323, -1e-323]]}),
    ["enumerate", GAME],
))
# separable games whose gauge-fixed split overflows, in A and in rho
@example(invocation=(
    json.dumps({"kind": "bimatrix", "B": [[0.0, 1.7e+308]], "C": [[-8.5e+307, -8.5e+307]]}),
    ["solve", GAME],
))
@example(invocation=(
    json.dumps({"kind": "bimatrix", "B": [[0.0, 0.0]], "C": [[-8.5e+307, 1.7e+308]]}),
    ["solve", GAME],
))
def test_every_input_maps_to_a_documented_exit_code(folder, invocation):
    doc, argv = invocation
    game, out = folder / "game.json", folder / "out.json"
    game.write_text(doc, encoding="utf-8")
    out.unlink(missing_ok=True)
    argv = [{GAME: str(game), OUT: str(out)}.get(arg, arg) for arg in argv]
    stdout = io.StringIO()
    with warnings.catch_warnings(), redirect_stdout(stdout), redirect_stderr(io.StringIO()):
        warnings.simplefilter("error")
        try:
            code = main(argv)
        except SystemExit as exc:
            # only argparse exits, on a command line it refuses
            assert exc.code == 2
            assert traceback.extract_tb(exc.__traceback__)[-1].filename == argparse.__file__
            return
    assert code in (0, 1, 2, 3)
    if "--format=json" in argv and stdout.getvalue():
        json.loads(stdout.getvalue())
    if code == 0 and argv[0] == "random":
        parse_game(out.read_text(encoding="utf-8") if out.exists() else stdout.getvalue())

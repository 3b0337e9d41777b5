"""Command-line front end.

Subcommands: solve, verify, decompose, enumerate, demo, random.
Exit codes: 0 success / all checks pass, 1 negative verdict
(non-equilibrium or non-separable input), 2 input error, 3 solver,
numerical or write failure.  Text reports print values to 12
significant digits; JSON reports carry full-precision floats.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .decompose import BimatrixGame, compose, decompose, is_separable_sum
from .demo import DEMO_NAMES, dilemma_summary
from .equilibrium import solve_equilibrium, solve_joint_lp
from .errors import CertificationFailure, InputError, NotSeparable, SolverFailure, TpassError
from .game import TOL_EQUILIBRIUM, TpassGame, is_equilibrium, random_tpass
from .gamefile import _parse_vector, dumps_game, load_game
from .oracle import SIZE_CAP, cross_check, enumerate_equilibria


def _fmt(x: float) -> str:
    return f"{float(x):.12g}"


def _fmt_vec(v) -> str:
    return "[" + ", ".join(_fmt(x) for x in np.asarray(v, dtype=float)) + "]"


def _fmt_mat(m) -> str:
    return "[" + ", ".join(_fmt_vec(row) for row in np.asarray(m, dtype=float)) + "]"


def _as_tpass(loaded) -> tuple[TpassGame, str | None]:
    """Accept either file kind; bimatrix input is decomposed first."""
    if isinstance(loaded, TpassGame):
        return loaded, None
    result = decompose(loaded)
    notice = (
        f"notice: bimatrix input decomposed to (A, pi, rho); "
        f"reconstruction residual {_fmt(result.max_residual)}"
    )
    return result.game, notice


def _cmd_solve(args) -> int:
    loaded = load_game(args.path)
    game, notice = _as_tpass(loaded)
    if args.method == "primal":
        sol = solve_equilibrium(game, args.tol)
        objective = sol.lp_value
    else:
        sol, objective = solve_joint_lp(game, args.tol)
    report = sol.report
    oracle_ok = None
    if max(game.shape) <= SIZE_CAP:
        oracle_ok = cross_check(game, sol, args.tol)

    payload = {
        "status": "optimal",
        "p": list(sol.p.weights),
        "q": list(sol.q.weights),
        "alpha": sol.alpha,
        "beta": sol.beta,
        "objective": objective,
        "residuals": {
            "slackness": sol.slackness_residual,
            "row_violation": report.row_violation,
            "col_violation": report.col_violation,
            "simplex_violation": report.simplex_violation,
        },
        "checks": {
            "is_equilibrium": report.is_equilibrium,
            "oracle": oracle_ok,
        },
    }
    if notice:
        print(notice, file=sys.stderr)
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        print(f"status: optimal ({args.method} method)")
        print(f"p* = {_fmt_vec(sol.p)}")
        print(f"q* = {_fmt_vec(sol.q)}")
        print(f"alpha = {_fmt(sol.alpha)}")
        print(f"beta = {_fmt(sol.beta)}")
        print(f"objective = {_fmt(objective)}")
        print(f"slackness residual = {_fmt(sol.slackness_residual)}")
        print(
            f"equilibrium check: {'pass' if report.is_equilibrium else 'FAIL'} "
            f"(row {_fmt(report.row_violation)}, col {_fmt(report.col_violation)})"
        )
        if oracle_ok is None:
            print("oracle cross-check: skipped (size over cap)")
        else:
            print(f"oracle cross-check: {'confirmed' if oracle_ok else 'FAILED'}")
    return 0


def _cmd_verify(args) -> int:
    loaded = load_game(args.path)
    game, notice = _as_tpass(loaded)
    p = _parse_vector(args.p.split(","), "--p")
    q = _parse_vector(args.q.split(","), "--q")
    # verify_lp_pair and check_joint_lp read their verdicts off this one
    # report (see their docstrings), so every line below is printed from it
    report = is_equilibrium(game, p, q, args.tol)
    ok = report.is_equilibrium
    if notice:
        print(notice, file=sys.stderr)
    print(
        f"best-response check: {'pass' if ok else 'fail'} "
        f"(row violation {_fmt(report.row_violation)}, "
        f"col violation {_fmt(report.col_violation)}, "
        f"simplex {_fmt(report.simplex_violation)})"
    )
    print(
        f"lp-pair certificate: {'pass' if ok else 'fail'} "
        f"(primal violation {_fmt(report.row_violation)}, "
        f"dual violation {_fmt(report.col_violation)})"
    )
    print(f"joint-lp certificate: {'pass' if ok else 'fail'}")
    print(f"verdict: {'equilibrium' if ok else 'not an equilibrium'}")
    return 0 if ok else 1


def _cmd_decompose(args) -> int:
    loaded = load_game(args.path)
    if not isinstance(loaded, BimatrixGame):
        raise InputError("decompose expects a file of kind 'bimatrix'")
    ok, residual = is_separable_sum(loaded, args.tol)
    if not ok:
        if args.format == "json":
            print(json.dumps({"separable": False, "tetrad_residual": residual}, indent=2))
        else:
            print(f"separable: no (tetrad residual {_fmt(residual)})")
        return 1
    result = decompose(loaded, args.tol)
    game = result.game
    if args.format == "json":
        payload = {
            "separable": True,
            "tetrad_residual": residual,
            "A": game.A.tolist(),
            "pi": game.pi.tolist(),
            "rho": game.rho.tolist(),
            "round_trip_residual": result.max_residual,
        }
        print(json.dumps(payload, indent=2))
    else:
        print(f"separable: yes (tetrad residual {_fmt(residual)})")
        print(f"A   = {_fmt_mat(game.A)}")
        print(f"pi  = {_fmt_vec(game.pi)}")
        print(f"rho = {_fmt_vec(game.rho)}")
        print(f"round-trip residual = {_fmt(result.max_residual)}")
    return 0


def _cmd_enumerate(args) -> int:
    loaded = load_game(args.path)
    bg = compose(loaded) if isinstance(loaded, TpassGame) else loaded
    equilibria = enumerate_equilibria(bg, args.tol)
    for p, q in equilibria:
        pw = np.asarray(p, dtype=float)
        qw = np.asarray(q, dtype=float)
        row_pay = float(pw @ bg.B @ qw)
        col_pay = float(pw @ bg.C @ qw)
        print(
            f"p = {_fmt_vec(pw)}  q = {_fmt_vec(qw)}  "
            f"payoffs ({_fmt(row_pay)}, {_fmt(col_pay)})"
        )
    print(f"{len(equilibria)} equilibrium(s) found")
    return 0


def _cmd_demo(args) -> int:
    if args.name not in DEMO_NAMES:
        raise InputError(f"unknown demo {args.name!r}; available: {', '.join(DEMO_NAMES)}")
    info = dilemma_summary()
    if args.format == "json":
        print(json.dumps(info, indent=2))
        return 0
    eq = info["equilibrium"]
    cell = info["pareto_cell"]
    near = info["near_miss"]
    print("demo 'pd': a 2x2 separable-sum dilemma")
    print(f"A   = {_fmt_mat(info['A'])}")
    print(f"pi  = {_fmt_vec(info['pi'])}")
    print(f"rho = {_fmt_vec(info['rho'])}")
    print(f"row payoff matrix B    = {_fmt_mat(info['B'])}")
    print(f"column payoff matrix C = {_fmt_mat(info['C'])}")
    print(
        f"unique equilibrium: p* = {_fmt_vec(eq['p'])}, q* = {_fmt_vec(eq['q'])}, "
        f"payoffs (alpha, beta) = ({_fmt(eq['alpha'])}, {_fmt(eq['beta'])})"
    )
    print(f"oracle cross-check: {'confirmed' if eq['oracle_confirmed'] else 'FAILED'}")
    print(
        f"cell ({cell['row']}, {cell['col']}) pays "
        f"({_fmt(cell['payoffs'][0])}, {_fmt(cell['payoffs'][1])}): better for both "
        f"players, yet not an equilibrium; either player gains by deviating to strategy 1"
    )
    print(
        f"near-miss variant: with B[1][2] and C[2][1] set to 3/4 the pair looks similar "
        f"but has no separable payoff sum (tetrad residual {_fmt(near['tetrad_residual'])})"
    )
    return 0


def _cmd_random(args) -> int:
    game = random_tpass(args.m, args.n, args.lo, args.hi, args.seed)
    text = dumps_game(game)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tpass",
        description="Solve, certify and dissect separable-sum two-player games.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", help="compute and certify one equilibrium")
    sp.add_argument("path", help="game file (tpass or bimatrix kind)")
    sp.add_argument("--tol", type=float, default=TOL_EQUILIBRIUM)
    sp.add_argument("--method", choices=("primal", "joint"), default="primal")
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.set_defaults(func=_cmd_solve)

    vp = sub.add_parser("verify", help="run all certificates on a given strategy pair")
    vp.add_argument("path")
    vp.add_argument("--p", required=True, help="row strategy, comma separated")
    vp.add_argument("--q", required=True, help="column strategy, comma separated")
    vp.add_argument("--tol", type=float, default=TOL_EQUILIBRIUM)
    vp.set_defaults(func=_cmd_verify)

    dp = sub.add_parser("decompose", help="test separability and extract (A, pi, rho)")
    dp.add_argument("path")
    dp.add_argument("--tol", type=float, default=None)
    dp.add_argument("--format", choices=("text", "json"), default="text")
    dp.set_defaults(func=_cmd_decompose)

    ep = sub.add_parser("enumerate", help="list all equilibria (small games)")
    ep.add_argument("path")
    ep.add_argument("--tol", type=float, default=TOL_EQUILIBRIUM)
    ep.set_defaults(func=_cmd_enumerate)

    mp = sub.add_parser("demo", help="show a built-in demonstration game")
    mp.add_argument("name", help="demo name (pd)")
    mp.add_argument("--format", choices=("text", "json"), default="text")
    mp.set_defaults(func=_cmd_demo)

    rp = sub.add_parser("random", help="write a reproducible random game file")
    rp.add_argument("-m", type=int, required=True, help="number of rows")
    rp.add_argument("-n", type=int, required=True, help="number of columns")
    rp.add_argument("--lo", type=float, default=-1.0)
    rp.add_argument("--hi", type=float, default=1.0)
    rp.add_argument("--seed", type=int, default=0)
    rp.add_argument("-o", "--output", default=None, help="output path (default stdout)")
    rp.set_defaults(func=_cmd_random)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NotSeparable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (SolverFailure, CertificationFailure) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    except TpassError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

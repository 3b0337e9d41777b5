"""The three workloads: inputs made from a seed, and the ops that use them.

An op is one library call, or one ``tpass`` child process.  Each
workload is a fixed list of ops; a run repeats the whole list, so every
pass does the same work and its counts repeat exactly.

* ``small-sweep``: 1995 games with ``m, n`` uniform in 2..8, entries
  from ``random_tpass`` on [-1, 1), each multiplied by ``10^k`` with
  integer ``k`` uniform in [-3, 3]: every ``k`` is used for 285 games,
  in a shuffled order, so the scale mix is the same for every seed.
  Each game runs ``solve_equilibrium``,
  ``solve_joint_lp`` and a ``compose`` -> ``decompose`` round trip.  Few
  pivots per solve, so Python overhead dominates.  No op may fail, so
  the wider scales, where the library's absolute tolerances break, are
  left to the scale probe.
* scale probe (traced ``small-sweep`` runs only, untimed): the same
  ops on 10 games for each ``k`` with ``4 <= |k| <= 9``.  Its failures
  are counted as a per-layer metric, so the known scale defect stays
  visible without failing the timed workload.
* ``large-lp``: 36 cycles of unit-scale 64x64, 200x10 and 10x200 games,
  each solved by both methods.  Pivots dominate.  The tail is the top 2%
  of ops, so it needs many distinct games: with 12 cycles it was about
  one game per seed, and it moved from seed to seed by more than the
  machine's noise.
* ``cli``: ``tpass`` as a child process on four files: ``solve`` on a
  5x5 game (oracle cross-check), ``enumerate`` on a 5x5 game, ``solve``
  on a 32x32 bimatrix (decompose path) and ``solve`` on a 128x128 game
  (parse-heavy).  The only workload through ``gamefile``, ``cli`` and
  ``oracle``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import re
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

import tpass

from gate import GameRef

SMALL_SIZES = (2, 8)
SMALL_EXPONENTS = (-3, 3)
SMALL_GAMES_PER_EXPONENT = 285
# Scales beyond SMALL_EXPONENTS, out to 10^±9: there the library's
# absolute tolerances fail some ops at this commit (ROADMAP item 4).
PROBE_EXPONENTS = tuple(k for k in range(-9, 10) if abs(k) > SMALL_EXPONENTS[1])
PROBE_GAMES_PER_EXPONENT = 10
LARGE_CYCLES = 36
LARGE_SHAPES = ((64, 64), (200, 10), (10, 200))
# (op kind, file, shape of the game, written as a bimatrix, extra args)
CLI_OPS = (
    ("cli-solve", "solve5.json", (5, 5), False, ("--format", "json")),
    ("cli-enumerate", "enum5.json", (5, 5), False, ()),
    ("cli-solve", "bimatrix32.json", (32, 32), True, ("--format", "json")),
    ("cli-solve", "solve128.json", (128, 128), False, ("--format", "json")),
)
LIBRARY_METHODS = ("primal", "joint")


def _shape(m: int, n: int) -> str:
    return f"{m}x{n}"


# "<game shape>.<method>" of every op that solves an LP, in every
# workload: the keys of the per-shape LP metrics.
SHAPE_KEYS = tuple(dict.fromkeys(
    [f"small.{method}" for method in LIBRARY_METHODS]
    + [f"{_shape(*shape)}.{method}" for shape in LARGE_SHAPES for method in LIBRARY_METHODS]
    + [f"{_shape(*shape)}.primal" for _, _, shape, _, _ in CLI_OPS]
))


@dataclass(frozen=True)
class Op:
    kind: str  # primal | joint | roundtrip | cli-solve | cli-enumerate
    game: int  # index into Inputs.games
    shape: str  # key of the per-shape metrics
    argv: tuple[str, ...] = ()  # cli only; file names relative to the work dir

    @property
    def method(self) -> str:
        return "joint" if self.kind == "joint" else "primal"

    @property
    def key(self) -> str:
        """Key of the per-shape LP metrics (see ``SHAPE_KEYS``)."""
        return f"{self.shape}.{self.method}"


@dataclass
class Inputs:
    workload: str
    games: list  # TpassGame per op target
    exponents: list[int]  # per game: its payoffs were scaled by 10^k
    ops: list[Op]
    files: dict[str, str] = field(default_factory=dict)  # name -> text
    workdir: Path | None = None


def _scaled(game, factor: float):
    return tpass.TpassGame(game.A * factor, game.pi * factor, game.rho * factor)


def _sweep(workload: str, rng: random.Random, exponents: list[int]) -> Inputs:
    """Small games, one per exponent, in a shuffled order."""
    rng.shuffle(exponents)
    games, ops = [], []
    for i, k in enumerate(exponents):
        m, n = rng.randint(*SMALL_SIZES), rng.randint(*SMALL_SIZES)
        game = tpass.random_tpass(m, n, -1.0, 1.0, rng.getrandbits(64))
        games.append(_scaled(game, 10.0 ** k))
        ops += [Op(kind, i, "small") for kind in (*LIBRARY_METHODS, "roundtrip")]
    return Inputs(workload, games, exponents, ops)


def scale_probe(seed: int) -> Inputs:
    """The ``small-sweep`` ops on games scaled beyond its exponents."""
    rng = random.Random(f"scale-probe:{seed}")
    return _sweep("scale-probe", rng, list(PROBE_EXPONENTS) * PROBE_GAMES_PER_EXPONENT)


def generate(workload: str, seed: int) -> Inputs:
    """The workload's inputs; the same seed gives the same inputs."""
    rng = random.Random(f"{workload}:{seed}")
    draw = lambda m, n: tpass.random_tpass(m, n, -1.0, 1.0, rng.getrandbits(64))
    games, ops = [], []
    if workload == "small-sweep":
        low, high = SMALL_EXPONENTS
        return _sweep(workload, rng, list(range(low, high + 1)) * SMALL_GAMES_PER_EXPONENT)
    if workload == "large-lp":
        for _ in range(LARGE_CYCLES):
            for shape in LARGE_SHAPES:
                games.append(draw(*shape))
                ops += [Op(kind, len(games) - 1, _shape(*shape)) for kind in LIBRARY_METHODS]
        return Inputs(workload, games, [0] * len(games), ops)
    if workload == "cli":
        files = {}
        for i, (kind, name, shape, bimatrix, extra) in enumerate(CLI_OPS):
            games.append(draw(*shape))
            files[name] = tpass.dumps_game(tpass.compose(games[i]) if bimatrix else games[i])
            command = "enumerate" if kind == "cli-enumerate" else "solve"
            ops.append(Op(kind, i, _shape(*shape), (command, name, *extra)))
        return Inputs(workload, games, [0] * len(games), ops, files)
    raise ValueError(f"unknown workload {workload!r}")


def write_files(inputs: Inputs, workdir: Path) -> None:
    workdir.mkdir(parents=True, exist_ok=True)
    for name, text in inputs.files.items():
        (workdir / name).write_text(text, encoding="utf-8")
    inputs.workdir = workdir


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    return env


def argv_for(op: Op, inputs: Inputs) -> list[str]:
    return [str(inputs.workdir / a) if a.endswith(".json") else a for a in op.argv]


class ChildRun(NamedTuple):
    code: int
    out: str
    rss_kib: int  # the child's peak RSS
    cpu_s: float  # the child's user + system CPU time


# ``python -m tpass`` is started from this small launcher, which reports
# the child's own rusage on its stderr.  A process's ru_maxrss starts
# from the RSS of the process it was forked from (exec folds the old
# memory map's peak in), so a child forked straight from the benchmark
# would report at least the benchmark's RSS.
_LAUNCHER = """\
import os, sys
pid = os.fork()
if pid == 0:
    try:
        os.dup2(os.open(os.devnull, os.O_WRONLY), 2)
        os.execv(sys.executable, [sys.executable, "-m", "tpass", *sys.argv[1:]])
    finally:
        os._exit(127)
_, status, usage = os.wait4(pid, 0)
sys.stderr.write(f"{os.waitstatus_to_exitcode(status)} {usage.ru_maxrss} "
                 f"{usage.ru_utime + usage.ru_stime!r}")
"""


def run_child(argv: list[str], env: dict) -> ChildRun:
    """Run ``python -m tpass`` once, through the launcher."""
    proc = subprocess.Popen(
        [sys.executable, "-S", "-c", _LAUNCHER, *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    out, report = proc.communicate()
    if proc.returncode != 0:
        raise RuntimeError(f"launcher exited {proc.returncode}: {report.decode(errors='replace')}")
    code, rss_kib, cpu_s = report.split()
    return ChildRun(int(code), out.decode("utf-8", "replace"), int(rss_kib), float(cpu_s))


def run_in_process(argv: list[str]) -> tuple[int, str]:
    """Replay ``tpass.cli.main`` in this process, capturing its output."""
    import tpass.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = tpass.cli.main(argv)
    return code, out.getvalue()


def execute(op: Op, inputs: Inputs, in_process: bool, env: dict):
    """Run one op.  A library op returns the library's result; a CLI op
    returns ``(exit code, stdout)``, or a ``ChildRun`` when it ran as a
    child process."""
    if op.argv:
        argv = argv_for(op, inputs)
        return run_in_process(argv) if in_process else run_child(argv, env)
    game = inputs.games[op.game]
    if op.kind == "primal":
        return tpass.solve_equilibrium(game)
    if op.kind == "joint":
        return tpass.solve_joint_lp(game)[0]
    if op.kind == "roundtrip":
        return tpass.decompose(tpass.compose(game))
    raise ValueError(f"unknown op kind {op.kind!r}")


def warm_up(inputs: Inputs, env: dict) -> float:
    """Let lazy set-up finish before timing: one op of each library
    kind on a small fixed game, or one CLI child on the first file.
    Returns the CPU time of the child, if one ran."""
    if inputs.workload == "cli":
        child = run_child(argv_for(inputs.ops[0], inputs), env)
        if child.code != 0:
            raise RuntimeError(f"warm-up `tpass {' '.join(inputs.ops[0].argv)}` exited {child.code}")
        return child.cpu_s
    game = tpass.random_tpass(3, 3, -1.0, 1.0, 0)
    tpass.solve_equilibrium(game)
    tpass.solve_joint_lp(game)
    tpass.decompose(tpass.compose(game))
    return 0.0


def reference(inputs: Inputs) -> list[GameRef]:
    return [GameRef(g.A, g.pi, g.rho) for g in inputs.games]


_ENUM_LINE = re.compile(r"^p = \[(.*?)\]  q = \[(.*?)\]")


def _floats(text: str) -> np.ndarray:
    return np.array([float(x) for x in text.split(",")])


def judge(op: Op, ref: GameRef, result) -> tuple[bool, tuple[float, ...]]:
    """Check one op's result now; return (passed so far, value claims).

    ``result`` is the library's return value, or ``(exit code, stdout)``
    for a CLI op.  The claims are values of ``Z`` that
    :meth:`GameRef.claim_ok` checks after the timed loop.
    """
    if op.kind in ("primal", "joint"):
        p, q = result.p.weights, result.q.weights
        return ref.pair_ok(p, q), (ref.solve_claim(q, result.alpha),)
    if op.kind == "roundtrip":
        g = result.game
        return ref.triplet_ok(g.A, g.pi, g.rho), ()
    code, out = result[:2]
    if code != 0:
        return False, ()
    if op.kind == "cli-solve":
        try:
            doc = json.loads(out)
            p, q, alpha = np.array(doc["p"], float), np.array(doc["q"], float), doc["alpha"]
        except (ValueError, KeyError, TypeError):
            return False, ()
        return ref.pair_ok(p, q), (ref.solve_claim(q, alpha),)
    pairs = [_ENUM_LINE.match(line) for line in out.splitlines()]
    pairs = [(_floats(m.group(1)), _floats(m.group(2))) for m in pairs if m]
    ok = bool(pairs) and all(ref.pair_ok(p, q) for p, q in pairs)
    return ok, tuple(ref.pair_value(p, q) for p, q in pairs) if ok else ()

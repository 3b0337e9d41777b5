"""Spans around public ``tpass`` functions, installed from outside.

:meth:`Tracer.install` replaces each traced function by a wrapper in
every loaded ``tpass`` module namespace that holds it, so calls made
inside the library (``solve_equilibrium`` -> ``lp.solve``) are seen too.
:meth:`Tracer.uninstall` puts the originals back.  Spans live in memory
and :meth:`Tracer.write` stores them when the run ends.

A span is ``[name, start, end, parent, op, info]``: ``parent`` is the
index of the enclosing span (-1 for an op's root span), ``op`` the op's
sequence number, and ``info`` what the call produced that the
per-layer counts need (LP status and pivots, equilibria found, or the
exception class).  Start and end are CPU time of the process, the clock
the ops are timed with.  Everything runs on one thread, so a layer never
waits on another; self time is a span minus its children.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
from time import process_time

from workloads import SHAPE_KEYS

# (module, function) -> layer.  Span names are "module.function".
TRACED = {
    ("tpass.gamefile", "parse_game"): "gamefile.parse",
    ("tpass.gamefile", "load_game"): "gamefile.parse",
    ("tpass.equilibrium", "build_primal_lp"): "equilibrium.build",
    ("tpass.equilibrium", "build_dual_lp"): "equilibrium.build",
    ("tpass.equilibrium", "build_joint_lp"): "equilibrium.build",
    ("tpass.equilibrium", "solve_equilibrium"): "equilibrium",
    ("tpass.equilibrium", "solve_joint_lp"): "equilibrium",
    ("tpass.lp", "solve"): "lp.solve",
    ("tpass.game", "is_equilibrium"): "game.certify",
    ("tpass.decompose", "compose"): "decompose",
    ("tpass.decompose", "decompose"): "decompose",
    ("tpass.oracle", "enumerate_equilibria"): "oracle.enumerate",
    ("tpass.oracle", "cross_check"): "oracle.cross_check",
    ("tpass.cli", "main"): "cli.main",
}
ROOT = "op"

NAME, START, END, PARENT, OP, INFO = range(6)


def _info(name: str, result):
    if name == "tpass.lp.solve":
        return (result.status, result.iterations)
    if name == "tpass.oracle.enumerate_equilibria":
        return len(result)
    return None


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = -1
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, process_time(), 0.0, stack[-1] if stack else -1, self._op, None]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
                span[INFO] = _info(name, result)
                return result
            except BaseException as exc:
                span[INFO] = type(exc).__name__
                raise
            finally:
                stack.pop()
                span[END] = process_time()

        return traced

    def install(self) -> None:
        loaded = [m for key, m in sys.modules.items() if key == "tpass" or key.startswith("tpass.")]
        for (module_name, attr), _layer in TRACED.items():
            module = sys.modules.get(module_name)
            if module is None:
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(f"{module_name}.{attr}", original)
            for holder in loaded:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapper)
                        self._patched.append((holder, key, original))

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._patched):
            setattr(holder, key, original)
        self._patched.clear()

    @contextlib.contextmanager
    def op(self, number: int):
        """Root span of one op."""
        self._op = number
        span = [ROOT, process_time(), 0.0, -1, number, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield
        finally:
            self._stack.pop()
            span[END] = process_time()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def layer_of(name: str) -> str:
    if name == ROOT:
        return "bench.op"
    module, _, attr = name.rpartition(".")
    return TRACED[(module, attr)]


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


# Per-layer time metrics: mean self time per op, in ms.
LAYER_MS = {
    "equilibrium.build": "equilibrium.build_ms",
    "equilibrium": "equilibrium.self_ms",
    "lp.solve": "lp.solve_ms",
    "game.certify": "game.certify_ms",
    "decompose": "decompose.ms",
    "gamefile.parse": "gamefile.parse_ms",
    "oracle.enumerate": "oracle.enumerate_ms",
    "oracle.cross_check": "oracle.cross_check_ms",
}
SHARE_LAYERS = tuple(LAYER_MS) + ("cli.main", "bench.op")
COUNTS = ("lp.pivots", "lp.solves", "lp.optimal", "lp.solver_failures",
          "lp.infeasible_reported", "equilibrium.cert_failures", "oracle.equilibria_found")


def _pass_counts(spans, ops) -> list[dict]:
    """Exact counts per pass over the op list."""
    per_pass: list[dict] = []
    for span in spans:
        number = span[OP]
        pass_no, index = divmod(number, len(ops))
        while len(per_pass) <= pass_no:
            per_pass.append(dict.fromkeys(COUNTS, 0))
        counts = per_pass[pass_no]
        name, info = span[NAME], span[INFO]
        if name == "tpass.lp.solve":
            key = ops[index].key
            counts["lp.solves"] += 1
            counts[f"solves.{key}"] = counts.get(f"solves.{key}", 0) + 1
            if info == "SolverFailure":
                counts["lp.solver_failures"] += 1
            elif isinstance(info, tuple):
                status, pivots = info
                counts["lp.pivots"] += pivots
                counts[f"pivots.{key}"] = counts.get(f"pivots.{key}", 0) + pivots
                counts["lp.optimal"] += status == "optimal"
                counts["lp.infeasible_reported"] += status == "infeasible"
        elif layer_of(name) == "equilibrium" and info == "CertificationFailure":
            counts["equilibrium.cert_failures"] += 1
        elif name == "tpass.oracle.enumerate_equilibria" and isinstance(info, int):
            counts["oracle.equilibria_found"] += info
    return per_pass


def layer_metrics(spans, ops, passes: int) -> tuple[dict, bool]:
    """Per-layer metrics of a traced loop, and whether every pass
    counted exactly what the first did.

    Times are mean self time per op (``cli.main_ms`` is the whole
    in-process ``main`` call per op); shares are of total op time;
    counts are per pass over the op list.
    """
    own = self_times(spans)
    n_ops = sum(1 for s in spans if s[NAME] == ROOT)
    op_time = sum(s[END] - s[START] for s in spans if s[NAME] == ROOT)
    by_layer: dict[str, float] = {}
    by_key: dict[str, float] = {}
    main_total = 0.0
    for span, t in zip(spans, own):
        layer = layer_of(span[NAME])
        by_layer[layer] = by_layer.get(layer, 0.0) + t
        if layer == "lp.solve":
            key = ops[span[OP] % len(ops)].key
            by_key[key] = by_key.get(key, 0.0) + t
        elif layer == "cli.main":
            main_total += span[END] - span[START]
    out = {}
    for layer, name in LAYER_MS.items():
        out[name] = (by_layer.get(layer, 0.0) / n_ops * 1e3, "ms")
    out["cli.main_ms"] = (main_total / n_ops * 1e3, "ms")
    for layer in SHARE_LAYERS:
        out[f"{layer}.self_share"] = (by_layer.get(layer, 0.0) / op_time, "share")

    per_pass = _pass_counts(spans, ops)
    first = per_pass[0]
    steady = len(per_pass) == passes and all(c == first for c in per_pass)
    solves = first["lp.solves"]
    out["lp.pivots"] = (first["lp.pivots"], "count")
    out["lp.pivots_per_solve"] = (first["lp.pivots"] / solves if solves else 0.0, "count")
    out["lp.optimal_share"] = (first["lp.optimal"] / solves if solves else 0.0, "share")
    for name in ("lp.solver_failures", "lp.infeasible_reported",
                 "equilibrium.cert_failures", "oracle.equilibria_found"):
        out[name] = (first[name], "count")
    for key in SHAPE_KEYS:
        n = first.get(f"solves.{key}", 0)
        pivots = first.get(f"pivots.{key}", 0)
        out[f"lp.pivots.{key}"] = (pivots, "count")
        out[f"lp.pivots_per_solve.{key}"] = (pivots / n if n else 0.0, "count")
        out[f"lp.solve_ms.{key}"] = (by_key.get(key, 0.0) / (n * passes) * 1e3 if n else 0.0, "ms")
    return out, steady

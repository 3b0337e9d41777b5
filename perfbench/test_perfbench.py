"""Tests of the benchmark itself: inputs and exact counts repeat for a
seed, the gate rejects wrong answers at every payoff scale, and the
command refuses to run without the tpass sources.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tpass  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from gate import GameRef  # noqa: E402

pytest.importorskip("scipy")

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _fingerprint(inputs):
    arrays = [np.concatenate([g.A.ravel(), g.pi, g.rho]) for g in inputs.games]
    return [a.tobytes() for a in arrays], inputs.ops, inputs.files


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_same_seed_same_inputs_other_seed_other_inputs(workload):
    first = _fingerprint(workloads.generate(workload, 3))
    assert _fingerprint(workloads.generate(workload, 3)) == first
    assert _fingerprint(workloads.generate(workload, 4))[0] != first[0]


def _first_ops(inputs, n_games):
    inputs.ops = [op for op in inputs.ops if op.game < n_games]
    return inputs


def _traced_pass(inputs):
    refs = workloads.reference(inputs)
    tracer = spans.Tracer()
    plain, traced = run.measure_traced(inputs, refs, 0.0, tracer)
    layers, steady = spans.layer_metrics(tracer.spans, inputs.ops, traced.passes)
    assert steady and plain.steady() and traced.steady()
    assert plain.first == traced.first
    return layers, run.count_failed(traced, refs, inputs)


@pytest.fixture
def workdir():
    path = ROOT / ".perfbench_out" / "test-work"
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.mark.parametrize("workload, n_games", [("small-sweep", 60), ("large-lp", 3), ("cli", 4)])
def test_pivots_and_failures_repeat_exactly(workload, n_games, workdir):
    inputs = _first_ops(workloads.generate(workload, 5), n_games)
    workloads.write_files(inputs, workdir)
    layers, failed = _traced_pass(inputs)
    again, failed_again = _traced_pass(inputs)
    counted = [k for k, (_, unit) in layers.items() if unit == "count"]
    assert layers["lp.pivots"][0] > 0
    assert {k: layers[k] for k in counted} == {k: again[k] for k in counted}
    assert failed == failed_again
    if workload == "cli":  # replayed in-process: every output passes the gate
        assert failed == 0
        assert layers["oracle.equilibria_found"][0] >= 2


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_lp_op_has_a_shape_metric(workload):
    inputs = workloads.generate(workload, 2)
    keys = {op.key for op in inputs.ops if op.kind != "roundtrip"}
    assert keys <= set(workloads.SHAPE_KEYS)


def test_small_sweep_uses_every_exponent_equally():
    inputs = workloads.generate("small-sweep", 2)
    low, high = workloads.SMALL_EXPONENTS
    for k in range(low, high + 1):
        assert inputs.exponents.count(k) == workloads.SMALL_GAMES_PER_EXPONENT


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_failed_op_is_counted(workload):
    inputs = _first_ops(workloads.generate(workload, 2), 40)
    loop = run.Loop(len(inputs.ops))
    for index in range(len(inputs.ops)):
        loop.add(index, ("SolverFailure", False, ()))
    loop.passes = 1
    loop.add(0, (None, True, ()))  # a later pass that passed once
    assert run.count_failed(loop, workloads.reference(inputs), inputs) == len(inputs.ops) - 1


def test_scale_probe_lies_beyond_small_sweep_and_repeats():
    low, high = workloads.SMALL_EXPONENTS
    inputs = workloads.scale_probe(2)
    assert all(abs(k) > high and -low == high for k in inputs.exponents)
    assert sorted(set(inputs.exponents)) == list(workloads.PROBE_EXPONENTS)
    assert _fingerprint(workloads.scale_probe(2)) == _fingerprint(inputs)
    assert run.probe_scales(2) == run.probe_scales(2)


def test_scaling_moves_times_and_rates_only():
    metrics = {"t": (2.0, "ms"), "u": (1.5, "s"), "r": (4.0, "1/s"),
               "n": (3, "count"), "f": (0.5, "share"), "m": (30.0, "MB")}
    assert run.scaled(metrics, 2.0) == {**metrics, "t": (4.0, "ms"), "u": (3.0, "s"),
                                        "r": (2.0, "1/s")}


def test_child_reports_its_own_peak_rss(workdir):
    inputs = workloads.generate("cli", 1)
    workloads.write_files(inputs, workdir)
    argv = workloads.argv_for(inputs.ops[0], inputs)
    ballast = b"x" * (96 << 20)  # this process's RSS is now above 96 MiB
    child = workloads.run_child(argv, workloads.child_env(ROOT / "src"))
    assert len(ballast) and child.code == 0 and child.cpu_s > 0
    assert 8 << 10 < child.rss_kib < 80 << 10


def test_wrappers_are_removed_after_tracing():
    original = tpass.lp.solve
    tracer = spans.Tracer()
    tracer.install()
    assert tpass.lp.solve is not original and tpass.solve is tpass.lp.solve
    tracer.uninstall()
    assert tpass.lp.solve is original and tpass.solve is original


def test_metric_names_match_benchmark_json():
    inputs = _first_ops(workloads.generate("large-lp", 1), 1)
    layers, _ = _traced_pass(inputs)
    for name in ("trace.untraced_ops_per_s", "trace.traced_ops_per_s",
                 "trace.overhead_share", "game.generate_ms", "cli.import_ms",
                 "scale_probe.failed_ops"):
        layers[name] = (1.0, "")
    assert sorted(layers) == sorted(m["name"] for m in BENCHMARK["per_layer"])
    loop = run.Loop(1)
    loop.latencies = [0.001] * 20
    e2e, _ = run.end_to_end(loop, 0, [{"setup_s": 1.0}], 10.0)
    assert sorted(e2e) == sorted(m["name"] for m in BENCHMARK["end_to_end"])
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)


def test_gate_accepts_solver_answers_and_rejects_wrong_ones():
    game = tpass.random_tpass(4, 5, -1.0, 1.0, 7)
    ref = GameRef(game.A, game.pi, game.rho)
    sol = tpass.solve_equilibrium(game)
    p, q = sol.p.weights, sol.q.weights
    assert ref.pair_ok(p, q)
    assert ref.claim_ok(ref.solve_claim(q, sol.alpha))
    assert not ref.claim_ok(ref.solve_claim(q, sol.alpha + 1e-3))
    assert not ref.pair_ok(np.eye(4)[0] * 0.5, q)  # off the simplex
    assert not ref.pair_ok(p, q[:-1])


@pytest.mark.parametrize("scale", [1e-9, 1.0, 1e9])
def test_gate_is_relative_to_the_payoff_range(scale):
    # The dilemma's cooperative cell (2, 2) is not an equilibrium at any
    # scale; the equilibrium (1, 1) is one at every scale.
    A = np.array([[0.0, 1.0], [-1.0, 0.0]]) * scale
    pi = np.array([0.5, 0.75]) * scale
    ref = GameRef(A, pi, pi)
    assert not ref.pair_ok([0.0, 1.0], [0.0, 1.0])
    assert ref.pair_ok([1.0, 0.0], [1.0, 0.0])
    assert ref.claim_ok(ref.pair_value([1.0, 0.0], [1.0, 0.0]))


def test_exits_nonzero_without_the_sources():
    bare = ROOT / ".perfbench_out" / "bare-test"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        done = subprocess.run(
            [sys.executable, *BENCHMARK["command"][1:], "--workload", "cli", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0
    assert done.stdout.strip() == ""

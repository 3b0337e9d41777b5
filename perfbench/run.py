#!/usr/bin/env python3
"""Benchmark of the tpass solve path, end to end and layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload small-sweep --seed 1 --seconds 30 --trace 0

One process, one closed-loop caller, no threads: each op (a library
call, or a ``tpass`` child process for ``cli``) starts when the previous
one returns.  The op list is repeated in whole passes until ``--seconds``
have passed.  Every op's output is checked by ``gate.py``, outside the
timed region, against a reference that does not use the solver; a run
is correct only if no op fails.

Times are CPU time of this process plus that of the ``tpass`` child an
op or the warm-up ran, not wall time: on a shared VM, time the host
takes the vCPU away (steal) would otherwise land on whichever op was
running.  They are then scaled to a reference machine speed measured between ops
(``calibrate.py``), so that a slow minute on the host does not read as
a slow program.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs
untraced passes and passes with spans around the public ``tpass``
functions (see ``spans.py``) in turn, and prints the per-layer metrics
plus the tracing overhead.  The last line of output is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from array import array
from pathlib import Path
from time import perf_counter, process_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("small-sweep", "large-lp", "cli")
# What a user of each workload imports before the first op.
USER_IMPORT = {"small-sweep": "tpass", "large-lp": "tpass", "cli": "tpass.cli"}
SETUP_PROBES = 7
# The tail is the highest percentile with TAIL_BEYOND samples above it,
# but at most TAIL_MAX: at 30 seconds that is p99.9 on small-sweep
# (24000-48000 ops), about p98 on large-lp (400-1100) and p85 on cli
# (45-90).  It moves with the sample count smoothly, not in steps.
TAIL_BEYOND = 10
TAIL_MAX = 99.9
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def set_up(workload: str, seed: int, workdir: Path):
    """What a user pays before the first op: import, input generation,
    file writing and warm-up.  Returns (timings in CPU seconds, inputs)."""
    t0 = process_time()
    importlib.import_module(USER_IMPORT[workload])
    t1 = process_time()
    import workloads

    t2 = process_time()
    inputs = workloads.generate(workload, seed)
    t3 = process_time()
    workloads.write_files(inputs, workdir)
    t4 = process_time()
    child_s = workloads.warm_up(inputs, workloads.child_env(SRC))
    t5 = process_time() + child_s
    timings = {"import_s": t1 - t0, "generate_s": t3 - t2, "write_s": t4 - t3, "warmup_s": t5 - t4}
    timings["setup_s"] = sum(timings.values())
    return timings, inputs


class SetupProbes:
    """Set-up timings from fresh child processes, so every sample pays
    the import and first-call costs a user pays.  The probes are spread
    over the run, one between two passes when it is due, so that drift
    in machine speed falls on them as it falls on the ops."""

    def __init__(self, args, workdir: Path):
        self.args = args
        self.workdir = workdir
        self.due = [args.seconds * (k + 0.5) / SETUP_PROBES for k in range(SETUP_PROBES)]
        self.samples: list[dict] = []

    def between_passes(self, elapsed: float) -> None:
        """Run the next probe if it is due ``elapsed`` seconds in."""
        if len(self.samples) < SETUP_PROBES and elapsed >= self.due[len(self.samples)]:
            self._probe()

    def finish(self) -> list[dict]:
        """Run the probes that were not due yet; return all samples."""
        while len(self.samples) < SETUP_PROBES:
            self._probe()
        return self.samples

    def _probe(self) -> None:
        args = self.args
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "1", "--trace", "0",
               "--probe-setup", str(self.workdir / f"probe{len(self.samples)}")]
        done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=150)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe exited {done.returncode}: {done.stderr.strip()}")
        self.samples.append(json.loads(done.stdout.strip().splitlines()[-1]))


class Loop:
    """What one timed loop saw.  Outputs are kept for the first pass
    only; a later pass is compared with it as it runs, so memory does
    not grow with the number of passes."""

    def __init__(self, n_ops: int):
        self.n_ops = n_ops
        self.latencies = array("d")
        self.first: list[tuple] = []  # per op: (error, passed now, claims)
        self.divergent: list[tuple] = []  # (op index, record) of later passes
        self.child_rss_kib = 0
        # Peak RSS of this process after the first pass: every op has
        # run once, and the benchmark's own records have not grown yet.
        self.first_pass_rss_kib = 0
        self.passes = 0

    @property
    def ops_per_s(self) -> float:
        return len(self.latencies) / sum(self.latencies)

    def add(self, index: int, record: tuple) -> None:
        if self.passes == 0:
            self.first.append(record)
        elif record != self.first[index]:
            self.divergent.append((index, record))

    def steady(self) -> bool:
        """Whether every pass produced exactly the first pass's outputs."""
        return not self.divergent


def run_pass(loop: Loop, inputs, refs, in_process: bool, tracer=None, calibration=None) -> None:
    """Run the op list once, timing each op and gating its output, and
    sampling the reference speed between ops when a sample is due."""
    import workloads

    env = workloads.child_env(SRC)
    for index, op in enumerate(inputs.ops):
        error = None
        t0 = process_time()
        try:
            if tracer is None:
                result = workloads.execute(op, inputs, in_process, env)
            else:
                with tracer.op(loop.passes * loop.n_ops + index):
                    result = workloads.execute(op, inputs, in_process, env)
        except Exception as exc:  # a failed op is counted, not fatal
            error = type(exc).__name__
        op_s = process_time() - t0
        if error is None and isinstance(result, workloads.ChildRun):
            op_s += result.cpu_s
            loop.child_rss_kib = max(loop.child_rss_kib, result.rss_kib)
        loop.latencies.append(op_s)
        passed, claims = False, ()
        if error is None:
            try:
                passed, claims = workloads.judge(op, refs[op.game], result)
            except Exception as exc:  # malformed output fails the gate
                error = f"gate:{type(exc).__name__}"
        loop.add(index, (error, passed, claims))
        if calibration is not None:
            calibration.after_op(op_s)
    if loop.passes == 0:
        loop.first_pass_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    loop.passes += 1


def measure(inputs, refs, seconds: float, in_process: bool, probes: SetupProbes,
            calibration) -> Loop:
    """Whole untraced passes until ``seconds`` have passed, with the
    set-up probes in between."""
    loop = Loop(len(inputs.ops))
    start = perf_counter()
    while True:
        run_pass(loop, inputs, refs, in_process, calibration=calibration)
        elapsed = perf_counter() - start
        if elapsed >= seconds:
            return loop
        probes.between_passes(elapsed)


def measure_traced(inputs, refs, seconds: float, tracer, probes: SetupProbes | None = None,
                   calibration=None):
    """Untraced and traced passes in turn until ``seconds`` have passed,
    so drift in machine speed falls on both alike.  Returns the two
    loops."""
    plain, traced = Loop(len(inputs.ops)), Loop(len(inputs.ops))
    start = perf_counter()
    while True:
        run_pass(plain, inputs, refs, in_process=True, calibration=calibration)
        tracer.install()
        try:
            run_pass(traced, inputs, refs, in_process=True, tracer=tracer,
                     calibration=calibration)
        finally:
            tracer.uninstall()
        elapsed = perf_counter() - start
        if elapsed >= seconds:
            return plain, traced
        if probes is not None:
            probes.between_passes(elapsed)


def count_failed(loop: Loop, refs, inputs) -> int:
    """Failed ops.  An op fails if it raised, or if its output failed
    the gate (value claims are checked here, after the timed loop, with
    SciPy)."""
    ops = inputs.ops

    def fails(index, record) -> bool:
        error, passed, claims = record
        ref = refs[ops[index].game]
        return bool(error) or not passed or not all(ref.claim_ok(c) for c in claims)

    first = [fails(k, record) for k, record in enumerate(loop.first)]
    failed = sum(first) * loop.passes
    for index, record in loop.divergent:
        failed += fails(index, record) - first[index]
    return failed


def probe_scales(seed: int) -> tuple[int, int]:
    """(failed, attempted) over one untimed pass of the scale probe:
    the ``small-sweep`` ops on games scaled beyond its exponents."""
    import workloads

    inputs = workloads.scale_probe(seed)
    refs = workloads.reference(inputs)
    loop = Loop(len(inputs.ops))
    run_pass(loop, inputs, refs, in_process=True)
    return count_failed(loop, refs, inputs), len(inputs.ops)


def tail(latencies: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with TAIL_BEYOND
    samples beyond it, at most TAIL_MAX and at least the median."""
    import numpy as np

    pct = min(TAIL_MAX, max(50.0, 100.0 * (1.0 - TAIL_BEYOND / len(latencies))))
    return pct, float(np.percentile(latencies, pct))


def end_to_end(loop: Loop, failed: int, samples: list[dict], rss_mb: float) -> tuple[dict, float]:
    """The end-to-end metrics, and which percentile the tail is."""
    pct, tail_s = tail(loop.latencies)
    attempted = len(loop.latencies)
    return {
        "ops_per_s": (loop.ops_per_s, "1/s"),
        "latency_p50_ms": (statistics.median(loop.latencies) * 1e3, "ms"),
        "latency_tail_ms": (tail_s * 1e3, "ms"),
        "ok_share": ((attempted - failed) / attempted, "share"),
        "setup_s": (statistics.median(p["setup_s"] for p in samples), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }, pct


def plain_run(args, inputs, refs, probes, calibration):
    """End-to-end metrics from untraced passes."""
    cli = args.workload == "cli"
    loop = measure(inputs, refs, args.seconds, in_process=False, probes=probes,
                   calibration=calibration)
    rss_kib = loop.child_rss_kib if cli else loop.first_pass_rss_kib
    failed = count_failed(loop, refs, inputs)
    metrics, pct = end_to_end(loop, failed, probes.finish(), rss_kib / 1024.0)
    attempted = len(loop.latencies)
    notes = [
        f"latency_tail_ms is p{pct:.2f} of {attempted} samples",
        f"failed_share = {failed}/{attempted} = {failed / attempted:.6f}",
        f"peak_rss_mb is the {'largest child' if cli else 'benchmark process'}'s",
    ]
    return [loop], failed, metrics, loop.steady(), notes


def traced_run(args, inputs, refs, probes, calibration):
    """Per-layer metrics and the tracing overhead."""
    import spans

    tracer = spans.Tracer()
    plain, traced = measure_traced(inputs, refs, args.seconds, tracer, probes, calibration)
    samples = probes.finish()
    OUT.mkdir(exist_ok=True)
    span_file = OUT / f"spans-{args.workload}-{args.seed}.jsonl"
    tracer.write(span_file)
    metrics, counts_steady = spans.layer_metrics(tracer.spans, inputs.ops, traced.passes)
    metrics["trace.untraced_ops_per_s"] = (plain.ops_per_s, "1/s")
    metrics["trace.traced_ops_per_s"] = (traced.ops_per_s, "1/s")
    metrics["trace.overhead_share"] = (1.0 - traced.ops_per_s / plain.ops_per_s, "share")
    metrics["game.generate_ms"] = (statistics.median(p["generate_s"] for p in samples) * 1e3, "ms")
    cli = args.workload == "cli"
    import_ms = statistics.median(p["import_s"] for p in samples) * 1e3 if cli else 0.0
    metrics["cli.import_ms"] = (import_ms, "ms")
    failed = count_failed(plain, refs, inputs) + count_failed(traced, refs, inputs)
    # Tracing must not change a single output.
    steady = counts_steady and plain.steady() and traced.steady() and plain.first == traced.first
    notes = [
        f"spans: {len(tracer.spans)} written to {span_file.relative_to(ROOT)}",
        "every layer runs on the one caller thread: no layer waits on another",
    ]
    probe_failed = 0
    if args.workload == "small-sweep":
        probe_failed, probe_ops = probe_scales(args.seed)
        notes.append(f"scale probe: {probe_failed} of {probe_ops} untimed ops failed the gate "
                     "(not counted in failed)")
    metrics["scale_probe.failed_ops"] = (probe_failed, "count")
    if cli:
        notes.append("cli ops replayed in-process through tpass.cli.main, traced or not")
    return [plain, traced], failed, metrics, steady, notes


# Units of the times that calibrate.Calibration.factor() scales.
TIME_UNITS = {"s": 1, "ms": 1, "1/s": -1}


def scaled(metrics: dict, factor: float) -> dict:
    """Times multiplied, rates divided by ``factor``; the rest as is."""
    return {name: (value * factor ** TIME_UNITS.get(unit, 0), unit)
            for name, (value, unit) in metrics.items()}


def run(args, workdir: Path) -> int:
    probes = SetupProbes(args, workdir)
    _, inputs = set_up(args.workload, args.seed, workdir / "main")
    import calibrate
    import workloads

    refs = workloads.reference(inputs)
    # Inputs and references live for the whole run: keep them out of
    # the collector's work inside the timed region.
    gc.collect()
    gc.freeze()
    calibration = calibrate.Calibration()
    calibration.sample()
    runner = traced_run if args.trace else plain_run
    loops, failed, raw, steady, notes = runner(args, inputs, refs, probes, calibration)
    factor = calibration.factor()
    metrics = scaled(raw, factor)
    notes.append(f"reference work: median {statistics.median(calibration.samples) * 1e3:.3f} ms "
                 f"of {len(calibration.samples)} samples; times and rates scaled by {factor:.4f} "
                 f"to a {calibrate.REFERENCE_S * 1e3:g} ms reference")
    attempted = sum(len(loop.latencies) for loop in loops)
    passes = "+".join(str(loop.passes) for loop in loops)
    print(f"workload {args.workload} seed {args.seed}: {attempted} ops in {passes} passes "
          f"of {len(inputs.ops)} ops, {failed} failed the gate")
    for note in notes:
        print(note)
    if not steady:
        print("NOT STEADY: a later pass differed from the first", file=sys.stderr)
    if failed:
        print(f"INCORRECT: {failed} ops failed the gate", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        unscaled = f"  (unscaled {raw[name][0]:.6f})" if unit in TIME_UNITS else ""
        print(f"  {name:<34} {value:>16.6f} {unit}{unscaled}")
    print(json.dumps({
        "correct": steady and not failed,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", metavar="DIR", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "tpass" / "__init__.py").is_file():
        print(f"error: tpass sources not found under {SRC}", file=sys.stderr)
        return 2
    # No threads: BLAS stays single-threaded here and in every child.
    # Set before NumPy is first imported.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    if args.probe_setup:
        timings, _ = set_up(args.workload, args.seed, Path(args.probe_setup))
        print(json.dumps(timings))
        return 0
    workdir = OUT / f"work-{os.getpid()}"
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

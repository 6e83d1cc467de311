"""Benchmark of brenier_bounds: one client in a closed loop, one process, one thread.

Usage, from the repository root:

    python3 bench/run.py --workload verify_cli --seed 0 --seconds 16 --trace 0

Workloads: verify_cli, sweep_cli, quantile_1d (see workloads.py for why each
exists). A run

1. imports ``brenier_bounds`` from ``src/`` and generates the seeded inputs,
   and repeats that in fresh processes;
2. checks the exact reference against closed forms, then runs one untimed
   cycle with every layer call captured: each output is checked, and every
   quantity with an exact reference is scored;
3. times each op and checks its output outside the timed region; after
   each op, also outside it, times a fixed calibration kernel; and runs
   whole cycles over the workload's ops until their op time, in reference
   seconds (below), reaches ``--seconds``. Counting reference seconds
   keeps the number of ops in a run, and with it the percentile the tail
   metric lands on, independent of how fast the machine happens to run.

End-to-end metrics (``--trace 0``):

* ``setup_s``: import plus input generation in a fresh process, the median
  of three;
* ``ops_per_ref_s``, ``op_p50_ref_s``, ``op_tail_ref_s``: throughput (the
  median over cycles), median op time, and op time at the highest
  percentile with ten ops beyond it, in reference seconds. An op's
  reference seconds are its wall seconds times K_REF over the median of
  the last nine kernel times. On a shared machine whose speed drifts by
  30-50 % from one minute to the next, wall-clock figures from two runs of
  the same code differ by more than any useful bound; the kernel slows
  down with the machine and cancels that drift. The wall-clock figures are
  printed in the record line too. With few ops in a run the tail
  percentile is low (quantile_1d completes three cycles of seven ops, so
  its tail is the 52nd percentile); the record line states it;
* ``ok_ratio``: ops with a correct result over ops attempted;
* ``min_digits``: the fewest correct digits, -log10(max relative error),
  over every quantity of step 2 with an exact reference;
* ``peak_rss_mb``: peak resident memory of the run's process.

With ``--trace 1`` step 3 alternates untraced and traced cycles and reports
per-layer metrics per op from the traced ones (see tracing.py), plus the
tracing overhead. The last line of standard output is the result object;
the line before it records the environment, per-op counts and where the
time went. Both also go to ``.bench_results/``, the spans of a traced run
as gzip CSV.

``failed`` counts every op whose result is wrong. ``correct`` is false when
any op fails in a way the benchmark does not document as a known defect
(see workloads.py), or when a check itself cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".bench_results"
SETUP_SAMPLES = 3   # the run's own process plus two fresh ones
TAIL_BEYOND = 10    # op tail: the highest percentile with this many ops beyond it
K_REF = 0.01        # seconds the calibration kernel takes at reference speed
KERNEL_WINDOW = 9   # kernel times whose median scales an op to reference seconds

# one thread of load: keep BLAS from starting its own pool
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

# per-layer span stats, reported per traced op as "<span>.<stat>"
_LAYER_STATS = [
    ("transport.radial_map", ("calls", "busy_s", "self_s")),
    ("transport.quantile_map_1d", ("calls", "busy_s")),
    ("transport.lipschitz_empirical", ("calls", "busy_s")),
    ("transport.second_variation_check", ("calls", "busy_s")),
    ("bounds.tail_mass", ("calls", "busy_s", "self_s")),
    ("bounds.growth_data", ("calls", "busy_s", "self_s")),
    ("bounds.global_bound", ("calls", "busy_s", "self_s")),
    ("bounds.local_bound", ("calls", "busy_s", "self_s")),
    ("bounds.finite_global_sharp_bound", ("calls", "busy_s", "self_s")),
    ("bounds.mglob_uniformity_check", ("calls", "busy_s", "self_s")),
    ("constants.structural_ball", ("calls", "busy_s")),
    ("constants.structural_inf", ("calls", "busy_s")),
    ("constants.aggregates", ("calls", "busy_s")),
    ("potentials.normalization", ("calls", "busy_s")),
    ("potentials.tail_quadrature", ("calls", "busy_s")),
    ("cli.main", ("self_s",)),
    ("verify.run_scenario", ("self_s",)),
    ("verify.limit_sweep_D", ("self_s",)),
    ("verify.limit_sweep_caffarelli", ("self_s",)),
    ("transport.TailTable.tail", ("calls", "busy_s")),
    ("transport.TailTable.invert", ("calls", "busy_s")),
]
_UNITS = {"calls": "count", "busy_s": "s", "self_s": "s"}


def per_layer_metrics():
    """Every per-layer metric as (name, unit, better), in report order."""
    out = []
    for span, stats in _LAYER_STATS:
        out += [(f"{span}.{s}", _UNITS[s], "lower") for s in stats]
    out += [("transport.TailTable.builds", "count", "lower"),
            ("transport.TailTable.build_busy_s", "s", "lower"),
            ("transport.radial_map.coverage", "ratio", "higher"),
            ("transport.radial_map.max_rel_err", "rel_err", "lower"),
            ("transport.radial_map.max_residual", "abs_err", "lower"),
            ("transport.quantile_map_1d.max_rel_err", "rel_err", "lower"),
            ("bounds.growth_data.max_rel_err", "rel_err", "lower"),
            ("potentials.normalization.max_rel_err", "rel_err", "lower"),
            ("cli.nonstrict_json_files", "count", "lower"),
            ("trace.overhead_ratio", "ratio", "lower")]
    return out


def _calibration_kernel() -> float:
    """Seconds taken by a fixed mix of interpreter, numpy and quadrature work.

    It uses no library code; timed after every op, it tracks how fast the
    machine runs while that op's cycle is measured.
    """
    import numpy as np
    from scipy.integrate import quad
    f = lambda s: 1.0 / (1.0 + s * s)
    t0 = time.perf_counter()
    total = 0.0
    for k in range(160):
        total += quad(f, 0.0, 1.0 + k)[0]
        total += float(np.sum(np.log1p(np.linspace(0.0, k, 256))))
        total += sum(i * 0.5 for i in range(200))
    return time.perf_counter() - t0


def _import_and_build(workload: str, seed: int, tmp: Path):
    """Import the library and generate the inputs; return (bb, ops, seconds taken)."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import brenier_bounds as bb
    import brenier_bounds.cli  # noqa: F401  (the CLI is not imported by the package)
    import workloads
    ops = workloads.build(workload, seed, bb, tmp)
    return bb, ops, time.perf_counter() - t0


def _probe_setup(workload: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-400:]}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            path = ROOT / ".git" / name
            if path.is_file():
                return path.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
            return None
        return ref
    except OSError:
        return None


def _environment(seed: int) -> dict:
    import numpy as np
    import scipy
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError, ValueError):
        blas = None
    return {"nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__, "blas": blas,
            "blas_threads": {v: os.environ.get(v) for v in
                             ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
            "commit": _git_commit(), "seed": seed}


class Runner:
    """Runs ops, times them, checks them and keeps the per-op records."""

    def __init__(self, ops):
        self.ops = ops
        # (op index, seconds, ok, expected, traced, kernel seconds, reference seconds)
        self.records = []
        self.kernels = []
        self.ref_time = 0.0
        self.problems = []
        self.errors = {}    # quantity -> worst relative error (reference pass)
        self.nonstrict_per_cycle = 0
        self.op_of = {}     # op id -> op index

    def run_op(self, i: int, tracer=None, record=True):
        from workloads import Outcome
        op = self.ops[i]
        op_id = len(self.op_of)
        self.op_of[op_id] = i
        if tracer is not None:
            tracer.begin_op(op_id)
        t0 = time.perf_counter()
        try:
            out = op.run()
            failure = None
        except Exception:  # an escaped library error is a failed op, not a crash
            failure = traceback.format_exc(limit=3)
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.end_op()
        if failure is None:
            try:
                outcome = op.check(out)
            except Exception:
                outcome = Outcome(False, False, note=traceback.format_exc(limit=3))
        else:
            outcome = Outcome(False, False, note=failure)
        if not outcome.expected:
            self.problems.append(f"{op.name}: {outcome.note}")
        if record:
            self.kernels.append(_calibration_kernel())
            ref_dt = dt * K_REF / statistics.median(self.kernels[-KERNEL_WINDOW:])
            self.ref_time += ref_dt
            self.records.append((i, dt, outcome.ok, outcome.expected, tracer is not None,
                                 self.kernels[-1], ref_dt))
        return op_id, outcome

    def cycle(self, tracer=None, record=True):
        ids, outcomes = [], []
        for i in range(len(self.ops)):
            op_id, outcome = self.run_op(i, tracer, record)
            ids.append(op_id)
            outcomes.append(outcome)
        return ids, outcomes


def _tail(times):
    """(value, percentile, ops beyond): highest percentile with TAIL_BEYOND ops beyond."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def _timing(cycles) -> dict:
    """Throughput, median and tail of op times given per cycle."""
    times = [t for c in cycles for t in c]
    tail, pct, beyond = _tail(times)
    return {"ops_per_s": statistics.median(len(c) / sum(c) for c in cycles),
            "op_p50_s": statistics.median(times), "op_tail_s": tail,
            "op_tail_percentile": pct, "op_tail_beyond": beyond}


def _cycles(records, ops_per_cycle: int, calibrated: bool):
    """Op times per whole cycle, in wall seconds or in reference seconds."""
    col = 6 if calibrated else 1
    return [[r[col] for r in records[k:k + ops_per_cycle]]
            for k in range(0, len(records), ops_per_cycle)]


def measure(args, tmp: Path) -> int:
    bb, ops, own_setup = _import_and_build(args.workload, args.seed, tmp)
    import exact
    import tracing
    setup = [own_setup] + [_probe_setup(args.workload, args.seed)
                           for _ in range(SETUP_SAMPLES - 1)]
    runner = Runner(ops)
    try:
        exact.self_check()
    except ValueError as exc:
        runner.problems.append(f"exact reference: {exc}")

    # untimed reference cycle: checks every output, scores every exact quantity
    ref_tracer = tracing.Tracer()
    ref_tracer.install()
    try:
        _, outcomes = runner.cycle(ref_tracer, record=False)
    finally:
        ref_tracer.uninstall()
    for op, outcome in zip(ops, outcomes):
        runner.nonstrict_per_cycle += outcome.nonstrict_files
        for key, err in outcome.errors.items():
            runner.errors[key] = max(runner.errors.get(key, 0.0), err)
    for key, err in ref_tracer.errors.max_rel_err.items():
        runner.errors[key] = max(runner.errors.get(key, 0.0), err)

    tracer = tracing.Tracer() if args.trace else None
    traced_ids = set()
    t_start = time.perf_counter()
    cycles = 0
    while True:
        traced = bool(args.trace) and cycles % 2 == 1
        if traced:
            tracer.install()
            try:
                ids, _ = runner.cycle(tracer)
            finally:
                tracer.uninstall()
            traced_ids.update(ids)
        else:
            runner.cycle()
        cycles += 1
        # the wall-clock cap only bites on a machine over four times slower
        done = (runner.ref_time >= args.seconds
                or time.perf_counter() - t_start >= 4.0 * args.seconds)
        if done and (not args.trace or cycles % 2 == 0):
            break
    wall = time.perf_counter() - t_start

    attempted = len(runner.records)
    failed = sum(1 for r in runner.records if not r[2])
    raw = _timing(_cycles(runner.records, len(ops), calibrated=False))
    ref = _timing(_cycles(runner.records, len(ops), calibrated=True))
    kernel = [r[5] for r in runner.records]
    per_op = {}
    for i, op in enumerate(ops):
        mine = [r for r in runner.records if r[0] == i]
        per_op[op.name] = {"attempted": len(mine), "failed": sum(1 for r in mine if not r[2]),
                           "median_s": statistics.median(r[1] for r in mine),
                           "known_defect": op.known_defect}
    record = {"workload": args.workload, "environment": _environment(args.seed),
              "run": {"seconds": args.seconds, "wall_s": wall, "cycles": cycles,
                      "ops_per_cycle": len(ops), "trace": args.trace,
                      "setup_samples_s": setup, "ops": attempted},
              "wall_clock": raw,
              "calibration": {"k_ref_s": K_REF, "kernel_median_s": statistics.median(kernel),
                              "kernel_min_s": min(kernel), "kernel_max_s": max(kernel)},
              "per_op": per_op, "reference_errors": runner.errors,
              "nonstrict_json_files_per_cycle": runner.nonstrict_per_cycle}

    if args.trace:
        metrics = _layer_metrics(runner, ops, tracer, traced_ids, record)
    else:
        digits = min((exact.digits(e) for e in runner.errors.values()), default=None)
        if digits is None:
            runner.problems.append("no quantity with an exact reference was computed")
            digits = 0.0
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "ops_per_ref_s": (ref["ops_per_s"], "1/ref_s"),
            "op_p50_ref_s": (ref["op_p50_s"], "ref_s"),
            "op_tail_ref_s": (ref["op_tail_s"], "ref_s"),
            "ok_ratio": ((attempted - failed) / attempted, "ratio"),
            "min_digits": (digits, "digits"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    result = {"correct": not runner.problems, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    record["problems"] = runner.problems[:20]

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{stem}.json").write_text(json.dumps({"record": record, "result": result},
                                                     indent=1) + "\n")
    if args.trace:
        tracer.write(RESULTS / f"{stem}-spans.csv.gz",
                     {op_id: ops[runner.op_of[op_id]].name for op_id in traced_ids})
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


def _layer_metrics(runner, ops, tracer, traced_ids, record) -> dict:
    traced = [r for r in runner.records if r[4]]
    plain = [r for r in runner.records if not r[4]]
    n = len(traced)
    stats = tracer.per_name(traced_ids)
    values = {}
    for span, wanted in _LAYER_STATS:
        for s in wanted:
            values[f"{span}.{s}"] = stats[span][s] / n
    build = stats["transport.TailTable.build"]
    err = tracer.errors
    values.update({
        "transport.TailTable.builds": build["calls"] / n,
        "transport.TailTable.build_busy_s": build["busy_s"] / n,
        "transport.radial_map.coverage": err.returned / err.requested if err.requested else 0.0,
        "transport.radial_map.max_rel_err": err.max_rel_err.get("transport.radial_map", 0.0),
        "transport.radial_map.max_residual": err.max_residual,
        "transport.quantile_map_1d.max_rel_err":
            err.max_rel_err.get("transport.quantile_map_1d", 0.0),
        "bounds.growth_data.max_rel_err": err.max_rel_err.get("bounds.growth_data", 0.0),
        "potentials.normalization.max_rel_err":
            err.max_rel_err.get("potentials.normalization", 0.0),
        "cli.nonstrict_json_files": float(runner.nonstrict_per_cycle),
        # reference seconds, so that drift between alternate cycles cancels
        "trace.overhead_ratio": (sum(r[6] for r in traced) / n)
                                / (sum(r[6] for r in plain) / len(plain)),
    })
    # where each op's time went: busy share of every span that takes >= 1 %
    shares = {}
    for i, op in enumerate(ops):
        ids = {op_id for op_id in traced_ids if runner.op_of[op_id] == i}
        op_time = sum(r[1] for r in traced if r[0] == i)
        per = tracer.per_name(ids)
        shares[op.name] = {name: round(v["busy_s"] / op_time, 4) for name, v in per.items()
                           if op_time > 0 and v["busy_s"] >= 0.01 * op_time}
    record["layer_share_of_op_time"] = shares
    record["traced_ops"] = n
    record["absent_layers"] = tracer.absent
    record["exact_checks"] = err.checked
    record["unscored_captures"] = tracer.unscored
    units = {name: unit for name, unit, _ in per_layer_metrics()}
    return {name: (values[name], units[name]) for name, _, _ in per_layer_metrics()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("verify_cli", "sweep_cli", "quantile_1d"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=16.0,
                        help="op time to measure, in reference seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only import and generate inputs, print the time taken")
    args = parser.parse_args(argv)
    if not (SRC / "brenier_bounds" / "__init__.py").is_file():
        print(f"error: no brenier_bounds package under {SRC}", file=sys.stderr)
        return 2
    tmp = ROOT / ".bench_tmp" / f"{args.workload}-{os.getpid()}"
    try:
        if args.setup_probe:
            _, _, seconds = _import_and_build(args.workload, args.seed, tmp)
            print(json.dumps({"setup_s": seconds}))
            return 0
        return measure(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()   # only when no other run is using it
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())

"""dualface benchmark: one workload, one seed, one closed-loop run.

    python3 perfbench/run.py --workload train --seed 0 --seconds 20 --trace 0

Run from the repository root: the package is imported from ./src. Set-up
(preparing the seeded inputs) runs SETUPS times and reports its median. The
measured loop then runs one operation at a time until --seconds have passed
(at least one operation), checking every operation's outputs. Times are in
reference seconds (see hostclock.py); wall seconds are printed alongside.

With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 it carries the per-layer metrics of a traced run, which alternates
traced and untraced operations on the same inputs and checks that the
traced counts repeat exactly. Lines before it are for people: the machine,
every metric with its unit, and any per-layer metric that is absent because
its function no longer exists.
"""

from __future__ import annotations

import os

# Pin BLAS threads before NumPy loads; the problem sizes are far too small
# for threaded BLAS to help, and one thread keeps runs steady.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

from pathlib import Path  # noqa: E402

from hostclock import timed  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUPS = 3


def machine() -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": int(BLAS_THREADS),
    }


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=["train", "generate_long", "gradcheck"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def _fmt(name: str, value: float, unit: str) -> str:
    return f"  {name:<44} {value:>14.6g} {unit}"


def run_setups(workload, work: Path, seed: int):
    """Returns (wall, reference) seconds of each set-up and the state of the
    last one."""
    times, state = [], None
    for k in range(SETUPS):
        if k:
            shutil.rmtree(work / f"setup{k - 1}", ignore_errors=True)
        state, wall, ref = timed(lambda: workload.setup(work / f"setup{k}", seed))
        times.append((wall, ref))
    return times, state


def check(workload, state, op):
    """Run the workload's output checks; outputs it cannot read fail the
    op's last call."""
    try:
        workload.check(state, op)
    except (OSError, ValueError, KeyError) as e:
        op.calls[-1].errors.append(f"output check could not run: {e!r}")


def run_op(workload, state, index: int, out: Path, sampling: bool = True, tracer=None):
    """Time one op, traced if a tracer is given, then check its outputs."""
    if tracer is not None:
        tracer.install()
    try:
        op, op.wall_s, op.ref_s = timed(lambda: workload.op(state, index, out), sampling)
    finally:
        if tracer is not None:
            tracer.uninstall()
    check(workload, state, op)
    return op


def measure(workload, state, work: Path, seconds: float):
    ops, deadline = [], time.perf_counter() + seconds
    while not ops or time.perf_counter() < deadline:
        ops.append(run_op(workload, state, len(ops), work / f"op{len(ops)}"))
    return ops


def measure_traced(workload, state, work: Path, seconds: float):
    """Untraced and traced ops on the inputs of op 0, one untraced then two
    traced, then alternating; every traced op must add exactly the same
    counts. Nothing samples the host here, so spans hold only the package's
    own work."""
    from spans import Tracer

    tracer = Tracer(workload.steps_from)
    plain, traced, deltas, mismatch = [], [], [], []
    deadline = time.perf_counter() + seconds
    n = 0
    while not plain or len(traced) < 2 or time.perf_counter() < deadline:
        out = work / f"op{n}"
        n += 1
        if n == 1 or (n > 3 and n % 2 == 0):  # schedule: P T T P T P T ...
            plain.append(run_op(workload, state, 0, out, sampling=False))
            continue
        before = tracer.counts()
        op = run_op(workload, state, 0, out, sampling=False, tracer=tracer)
        after = tracer.counts()
        delta = {k: v - before.get(k, 0) for k, v in after.items() if v != before.get(k, 0)}
        if deltas and delta != deltas[0]:
            mismatch.append(sorted(set(delta.items()) ^ set(deltas[0].items())))
        deltas.append(delta)
        traced.append(op)
    return tracer, plain, traced, deltas[0], mismatch


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "dualface" / "__init__.py").is_file():
        print(f"perfbench: no dualface package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import dualface  # noqa: F401
        from workloads import WORKLOADS, SetupError
    except ImportError as e:
        print(f"perfbench: cannot import the dualface package from {ROOT / 'src'}: {e}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]()
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    print("machine: " + json.dumps(machine(), sort_keys=True))
    print(f"workload: {args.workload}  seed: {args.seed}  seconds: {args.seconds:g}  trace: {args.trace}")
    try:
        try:
            setup_times, state = run_setups(workload, work, args.seed)
        except SetupError as e:
            print(f"perfbench: {e}", file=sys.stderr)
            return 3
        if args.trace:
            tracer, plain, ops, counts, mismatch = measure_traced(workload, state, work, args.seconds)
        else:
            ops = measure(workload, state, work, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    all_ops = ops + (plain if args.trace else [])
    calls = [c for op in all_ops for c in op.calls]
    failed = sum(1 for c in calls if c.errors)
    for c in calls:
        for e in c.errors:
            print(f"FAILED dualface {' '.join(c.argv)}: {e}", file=sys.stderr)
    good = [op for op in ops if op.ok]
    correct = failed == 0

    metrics: dict[str, tuple[float, str]] = {}
    if args.trace:
        from spans import layer_metrics

        epochs = getattr(workload, "EPOCHS", 1)
        metrics, absent = layer_metrics(tracer, epochs, [o.wall_s for o in ops], [o.wall_s for o in plain])
        if mismatch:
            correct = False
            print(f"traced counts differ between identical ops: {mismatch}", file=sys.stderr)
        print("exact counts per op: " + json.dumps(dict(sorted(counts.items()))))
        if absent:
            print("absent per-layer metrics (function gone): " + ", ".join(absent))
        print(f"per-layer metrics ({len(ops)} traced ops, {len(plain)} untraced):")
    elif good:
        med = statistics.median
        metrics = {
            "setup_s": (med(ref for _, ref in setup_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "call_s": (med(o.ref_s for o in good), "s"),
            "items_per_s": (med(o.items / o.ref_s for o in good), "1/s"),
        }
        print(f"end-to-end metrics (medians over {len(good)} ops and {SETUPS} set-ups; "
              "times in reference seconds, see hostclock.py):")
        for name, value, unit in workload.report(good):
            print(_fmt(name, value, unit))
        print(_fmt("host_speed", med(o.wall_s / o.ref_s for o in good), "wall s per reference s"))
        print(_fmt("setup_s_wall", med(wall for wall, _ in setup_times), "s"))
        print(_fmt("call_s_wall", med(o.wall_s for o in good), "s"))
    print("  op_s: " + " ".join(f"{o.wall_s:.4f}" for o in all_ops))
    print(_fmt("fail_ratio", failed / len(calls), "ratio"))
    for name, (value, unit) in metrics.items():
        print(_fmt(name, value, unit))
    result = {
        "correct": correct,
        "attempted": len(calls),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

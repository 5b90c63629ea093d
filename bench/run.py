"""Benchmark foxcalc end to end and per layer.

From the repository root:

    python3 bench/run.py --workload paper-tables --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

One process per workload, no threads.  A run builds the workload's inputs
from the seed, self-tests its checkers, computes its reference values, then
repeats whole rounds of the workload's operations until --seconds have
passed.  Every operation's output is checked against a computation made
apart from foxcalc.  An operation that raises, answers wrongly or runs past
its time budget counts as failed, and the run goes on.

Right before and right after each operation and each set-up probe, a fixed
few milliseconds of the benchmark's own arithmetic (the speed probe) is
timed.  Each time is taken relative to the probes on either side of it, so
that the host's own changes of speed, which move both alike, cancel out of
wall_s, op_p50_s and setup_s.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics.  With --trace 0 the metrics are end to end (wall_s,
op_p50_s, setup_s, peak_rss_mb); with --trace 1 they are the per-layer spans
and counters of spans.py.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import reference

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

OP_BUDGET_S = 30  # per operation; the slowest takes 3 to 5 s
SETUP_PROBES = 7  # fresh interpreters timed per run for setup_s
WORKLOADS = ("paper-tables", "theta-formulas", "long-relators")

# The speed probe: all homs of < x, y | x^2 y^3 x^-1 y^-1 > into SL(2;Z_3)
# by brute force over its 576 pairs, pure-Python 2x2 matrix arithmetic of the
# kind foxcalc's maps does.  PROBE_REF_S is the probe's time at the reference
# speed: wall_s, op_p50_s and setup_s are in seconds at the host speed at
# which the probe takes exactly that long (about the speed of the 2.1 GHz Xeon
# host of README.md's figures).
PROBE_RELATORS = [((0, 2), (1, 3), (0, -1), (1, -1))]
PROBE_REF_S = 0.005


class OpTimeout(BaseException):
    """Raised by the alarm when an operation runs past its budget.  Not an
    Exception, so no handler inside foxcalc can swallow it."""


def _on_alarm(signum, frame):
    raise OpTimeout


def import_foxcalc():
    """Import foxcalc from this checkout's sources, never from elsewhere."""
    if not (SRC / "foxcalc" / "__init__.py").is_file():
        raise SystemExit(f"bench: no foxcalc sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import foxcalc

    if Path(foxcalc.__file__).resolve().parent != (SRC / "foxcalc").resolve():
        raise SystemExit(f"bench: foxcalc imported from {foxcalc.__file__}, not {SRC}")


def time_setup(workload, seed):
    """Seconds from starting a fresh interpreter until it has imported
    foxcalc and built the workload's inputs."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    start = perf_counter()
    with subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - start
        proc.stdout.read()
        proc.wait()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"setup probe failed with exit code {proc.returncode}")
    return elapsed


def speed_probe():
    """Seconds the speed probe takes now."""
    start = perf_counter()
    reference.brute_force_homs(PROBE_RELATORS, 2, 3)
    return perf_counter() - start


def middle_mean(values):
    """The median as a 40% trimmed mean: the mean of the middle fifth of the
    values, so that it rests on several operations instead of one."""
    ordered = sorted(values)
    cut = 2 * len(ordered) // 5
    return statistics.fmean(ordered[cut : len(ordered) - cut])


def run_op(op, budget=OP_BUDGET_S):
    """(seconds, result, error) for one operation under a time budget."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    start = perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, budget)
        try:
            result = op.run()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = perf_counter() - start
    except OpTimeout:
        return perf_counter() - start, None, f"did not finish within {budget} s"
    except Exception as exc:  # any fault of the program is one failed operation
        return perf_counter() - start, None, f"raised {type(exc).__name__}: {exc}"
    finally:
        signal.signal(signal.SIGALRM, previous)
    return elapsed, result, None


def run_workload(args):
    import_foxcalc()
    import selftest
    import spans
    import workloads

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
    ops = workloads.build(args.workload, args.seed)
    setup_trace = tracer.snapshot() if tracer else {}

    broken_checkers = selftest.run()
    for op in ops:
        op.prepare()
    setup_relative = []  # each set-up time over the mean of its probes
    for _ in range(0 if args.trace else SETUP_PROBES):
        probe = speed_probe()
        elapsed = time_setup(args.workload, args.seed)
        probe += speed_probe()
        setup_relative.append(2 * elapsed / probe)

    gc.collect()
    gc.freeze()
    attempted = failed = wrong = 0
    durations = [[] for _ in ops]
    relative = [[] for _ in ops]  # each duration over the mean of its probes
    round_walls, round_traces, errors = [], [], []
    start = perf_counter()
    while True:
        if tracer:
            tracer.reset()
        wall = 0.0
        for i, op in enumerate(ops):
            gc.collect()
            attempted += 1
            probe = speed_probe()
            elapsed, result, error = run_op(op)
            probe += speed_probe()
            wall += elapsed
            durations[i].append(elapsed)
            relative[i].append(2 * elapsed / probe)
            if error is None:
                try:
                    error = op.check(result)
                except Exception as exc:  # an output of an unexpected shape
                    error = f"check raised {type(exc).__name__}: {exc}"
                wrong += error is not None
            if error is not None:
                failed += 1
                errors.append(f"{op.name}: {error}")
        round_walls.append(wall)
        if tracer:
            round_traces.append(tracer.snapshot())
        if perf_counter() - start >= args.seconds:
            break

    for what in broken_checkers:
        print(f"bench: checker self-test failed: {what}", file=sys.stderr)
    for error in errors[:20]:
        print(f"bench: {error}", file=sys.stderr)
    # Each operation at the median over the run's rounds of its time relative
    # to the probes around it, in seconds at the probe's reference speed: the
    # host's speed drifts by tens of percent over seconds to minutes, and the
    # probe next to an operation slows down with it.
    scaled = [PROBE_REF_S * statistics.median(r) for r in relative]
    print(
        f"bench: {args.workload} seed={args.seed} trace={args.trace}: {len(round_walls)} rounds "
        f"of {len(ops)} operations, round wall {', '.join(f'{w:.3f}' for w in round_walls)} s, "
        f"sum of fastest {sum(min(d) for d in durations):.3f} s, wall_s {sum(scaled):.3f}",
        file=sys.stderr,
    )

    if tracer:
        metrics = {}
        for name, unit in spans.PER_LAYER:
            if name in spans.SETUP_METRICS:
                value = setup_trace.get(name, 0.0)
            elif unit == "count":
                value = statistics.median_low(t.get(name, 0) for t in round_traces)
            else:
                value = statistics.median(t.get(name, 0.0) for t in round_traces)
            metrics[name] = {"value": value, "unit": unit}
    else:
        metrics = {
            "wall_s": {"value": sum(scaled), "unit": "s"},
            "op_p50_s": {"value": middle_mean(scaled), "unit": "s"},
            "setup_s": {"value": PROBE_REF_S * statistics.median(setup_relative), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB",
            },
        }
    return {
        "correct": not broken_checkers and wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def run_all(args):
    """Each workload in its own process, one after the other."""
    results = {}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            raise SystemExit(f"bench: {workload} exited with code {proc.returncode}")
        results[workload] = json.loads(proc.stdout.strip().splitlines()[-1])
        res = results[workload]
        print(f"{workload}: attempted {res['attempted']}, failed {res['failed']}, "
              f"correct {res['correct']}")
        for name, metric in res["metrics"].items():
            print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    return results


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        import_foxcalc()
        import workloads

        workloads.build(args.workload, args.seed)
        print("ready", flush=True)
        return 0
    if args.workload == "all":
        print(json.dumps(run_all(args)))
        return 0
    print(json.dumps(run_workload(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""rsa-primer benchmark: one workload end to end, or every workload traced.

    python3 bench/run.py --workload keygen --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the named workload runs as a closed loop with one client
until its operations have taken ``--seconds``; the run prints the end-to-end
metrics.  With ``--trace 1`` every workload runs twice on the same inputs,
untraced and with spans around the library's public functions, and the
run prints the per-layer metrics, each layer's share of wall time and the
tracing overhead.  Every operation's output is checked; the last stdout
line is the JSON result, and the exit code is 1 when any check failed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

from tracing import Tracer, aggregate, installed
from workloads import DEFAULT_SEED, WORKLOADS, Op, load_library

ROOT = Path(__file__).resolve().parent.parent
ROUNDS = 5

# Host speed.  Other tenants of a shared host slow every process on it, by up
# to 1.6x for tens of seconds, which no repetition inside one run can average
# out.  Between operations the workload's reference, a fixed piece of work
# that is not part of the program, runs for about REF_SHARE of the time; each
# operation's time is divided by the median slowdown of the reference around
# it (its time over its nominal time).
REF_SHARE = 0.03


def quantile(values: list[float], q: float) -> float:
    """Linear interpolation between the closest ranks."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def tail_quantile(samples: int) -> float:
    """The highest quantile up to 0.9 with ten samples beyond it (at least the median)."""
    return max(0.5, min(0.9, 1 - 10 / samples))


def host_sample(workload, seconds: float) -> list[float]:
    """Slowdowns of reference runs taking about REF_SHARE of ``seconds``; at least one."""
    slowdowns: list[float] = []
    spent = 0.0
    while not slowdowns or spent < REF_SHARE * seconds:
        elapsed = workload.reference()
        spent += elapsed
        slowdowns.append(elapsed / workload.reference_nominal_s)
    return slowdowns


def set_up(name: str, seed: int):
    """Import the library afresh and build the workload; returns it and the seconds taken."""
    start = perf_counter()
    workload = WORKLOADS[name](load_library(ROOT), seed, ROOT)
    seconds = perf_counter() - start
    # Set-up garbage is collected now, and what survives is left out of the
    # collections that run during measurement.
    gc.collect()
    gc.freeze()
    return workload, seconds


def run_one(workload, i: int, tracer=None, expected=None) -> Op:
    """Operation ``i``, with any failure recorded in ``op.error``.

    Its output is checked in full, or, when ``expected`` is given, compared
    with the output of an earlier run of the same input.
    """
    start = perf_counter()
    try:
        if tracer is None:
            op = workload.run(i)
        else:
            with installed(tracer, workload.lib):
                op = tracer.call(f"{workload.name}.op", workload.run, i)
        if expected is None:
            op.error = workload.check(i, op)
        elif op.output != expected:
            op.error = "output differs from an earlier run of the same input"
    except Exception as exc:  # a failed operation is counted, and the run goes on
        op = Op(perf_counter() - start, error=f"{type(exc).__name__}: {exc}")
        traceback.print_exc()
    op.value = None
    if op.error is not None:
        print(f"{workload.name} operation {i} failed: {op.error}", file=sys.stderr)
    return op


def peak_rss_mib(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # Linux reports KiB


def environment(args, samples: dict) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "samples": samples,
    }


def measure(args) -> tuple[dict, int, int, dict]:
    """The end-to-end run of one workload, tracing off.

    The run is ``ROUNDS`` rounds, each with its own set-up.  The first round
    runs new inputs until they have taken its share of ``--seconds``; later
    rounds repeat those inputs and must reproduce their outputs.  Every time
    is divided by the host's slowdown around it; each input keeps the median
    of its scaled times.
    """
    setups: list[float] = []
    rounds: list[list[Op]] = []
    scaled: list[list[float]] = []
    slowdowns: list[float] = []
    for _ in range(ROUNDS):
        workload, setup_s = set_up(args.workload, args.seed)
        before = host_sample(workload, setup_s)
        setups.append(setup_s / quantile(before, 0.5))
        ops: list[Op] = []
        times: list[float] = []
        try:
            while (len(ops) < len(rounds[0]) if rounds
                   else sum(op.seconds for op in ops) < args.seconds / ROUNDS or not ops):
                i = len(ops)
                ops.append(run_one(workload, i, expected=rounds[0][i].output if rounds else None))
                after = host_sample(workload, ops[-1].seconds)
                times.append(ops[-1].seconds / quantile(before + after, 0.5))
                slowdowns += before
                before = after
        finally:
            workload.close()
        rounds.append(ops)
        scaled.append(times)

    per_input = list(zip(*scaled))
    ok = [i for i, runs in enumerate(zip(*rounds)) if all(op.error is None for op in runs)]
    typical = [quantile(per_input[i], 0.5) for i in ok] or [quantile(t, 0.5) for t in per_input]
    tail = tail_quantile(len(typical))
    metrics = {
        "ops_per_s": (len(ok) / sum(typical), "1/s"),
        "op_ms.p50": (quantile(typical, 0.5) * 1000, "ms"),
        "op_ms.p90": (quantile(typical, tail) * 1000, "ms"),
        "setup_s": (quantile(setups, 0.5), "s"),
        "peak_rss_MiB": (peak_rss_mib(workload.rss_of_children), "MiB"),
    }
    attempted = sum(len(ops) for ops in rounds)
    failed = sum(op.error is not None for ops in rounds for op in ops)
    raw = [op.seconds for ops in rounds for op in ops]
    report = {
        **metrics,
        **workload.details([rounds[0][i] for i in ok]),
        "raw.op_ms.p50": (quantile(raw, 0.5) * 1000, "ms"),
        "host.slowdown.p50": (quantile(slowdowns, 0.5), "x"),
    }
    for name, (value, unit) in report.items():
        print(f"{name:34} {value:14.6f} {unit}")
    print(f"{'failed_frac':34} {failed / attempted:14.6f} of {attempted}")
    samples = {
        "inputs": len(per_input),
        "rounds": ROUNDS,
        "setups": len(setups),
        "reference_runs": len(slowdowns),
        "op_ms.p90_quantile": tail,
        "samples_beyond_op_ms.p90": round(len(typical) * (1 - tail)),
    }
    return metrics, attempted, failed, samples


def profile_workload(name: str, seed: int, seconds: float) -> tuple[dict, int, int, dict]:
    """Untraced and traced passes of one workload over the same inputs."""
    workload, _ = set_up(name, seed)
    tracer = Tracer()
    plain: list[Op] = []
    traced: list[Op] = []
    try:
        # Each input runs untraced and traced back to back, in alternating
        # order, so drift in machine speed falls on both passes alike.  The
        # second run of an input must reproduce the first one's output.
        while sum(op.seconds for op in plain) < seconds or not plain:
            i = len(plain)
            expected = None
            for traced_now in (False, True) if i % 2 == 0 else (True, False):
                op = run_one(workload, i, tracer if traced_now else None, expected)
                (traced if traced_now else plain).append(op)
                expected = op.output
        stats = aggregate(tracer.spans)
        derived = workload.derived(stats, tracer.spans, plain)
    finally:
        workload.close()

    untraced_s = sum(op.seconds for op in plain)
    traced_s = sum(op.seconds for op in traced)
    metrics: dict[str, tuple[float, str]] = {}
    for fn in workload.traced_functions:
        metrics[f"{name}.{fn}.calls"] = (stats[fn].calls, "count")
        metrics[f"{name}.{fn}.self_s"] = (stats[fn].self_s, "s")
        if fn.startswith("cipher.crack_private_key."):
            metrics[f"{name}.{fn}.failed"] = (stats[fn].failed, "count")
    metrics.update(derived)
    metrics.update(workload.details(plain))
    for layer in workload.layers:
        self_s = sum(s.self_s for fn, s in stats.items() if fn.startswith(layer + "."))
        metrics[f"{name}.{layer}.share"] = (self_s / traced_s, "ratio")
    metrics[f"{name}.untraced_s"] = (untraced_s, "s")
    metrics[f"{name}.trace_overhead_s"] = (traced_s - untraced_s, "s")
    metrics[f"{name}.traced_ops"] = (len(traced), "count")

    print(f"{name}: {len(plain)} operations per pass; shares of wall time")
    for metric, (share, _) in metrics.items():
        if metric.endswith(".share"):
            print(f"  {metric[len(name) + 1:-len('.share')]:16} {100 * share:7.2f} %")
    print(f"  tracing overhead {traced_s - untraced_s:+.4f} s on {untraced_s:.4f} s untraced")
    ops = plain + traced
    failed = sum(op.error is not None for op in ops)
    return metrics, len(ops), failed, {"ops_per_pass": len(plain)}


def profile(args) -> tuple[dict, int, int, dict]:
    """The traced run: every workload, sharing ``--seconds`` evenly."""
    metrics: dict[str, tuple[float, str]] = {}
    attempted = failed = 0
    samples = {}
    per_pass = args.seconds / (2 * len(WORKLOADS))
    for name in WORKLOADS:
        m, a, f, s = profile_workload(name, args.seed, per_pass)
        metrics.update(m)
        attempted += a
        failed += f
        samples[name] = s
    for name, (value, unit) in metrics.items():
        print(f"{name:52} {value:14.6f} {unit}")
    return metrics, attempted, failed, samples


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "rsa_primer" / "__init__.py").is_file():
        print(f"no rsa_primer sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    metrics, attempted, failed, samples = (profile if args.trace else measure)(args)
    print(json.dumps({"env": environment(args, samples)}))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

"""ontolab benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 45 --trace 0

Run from the root of a checkout; ontolab is imported from its `src/`.
The run is a closed loop with one caller: each op starts after the
previous one returns, and no threads or process pools are started (the
`cli` workload runs one child process at a time).

With `--trace 0` the run sets up SETUP_REPEATS times (the median is
`setup_s`), then runs whole cycles of checked ops until at least
`--seconds` of op time have passed, each cycle pinned to the process's
CPUs in turn, and reports the end-to-end metrics.
With `--trace 1` it sets up once and runs one cycle in which each op runs
twice, untraced and with ontolab's public functions wrapped, in
alternating order; the difference is the tracing overhead. A census
follows, traced: one in-process pass of the CLI command mix (on ladder; on
cli the cycle already is that pass), one pass over the wide-model pool
(write, read back and check models of 10 to 14 measurements) and the
signed decomposition of zoo:prbox, so that every per-layer metric is
measured on every workload. The run reports the per-layer metrics of the
traced ops.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the lines before it give
the same figures for a reader, with the tail percentile, the op-kind
shares and, in a traced run, the tracing overhead. The exit code is 0 when
every op gave a right result, 1 when any failed (the JSON line is printed
all the same, with `"correct": false`) and 2 on a usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 5
CHILD_REPEATS = 5


@dataclass
class Phase:
    """Op times and outcomes of a stretch of ops."""

    times: list = field(default_factory=list)
    kinds: list = field(default_factory=list)
    slots: list = field(default_factory=list)  # each op's place in its cycle
    failed: int = 0
    busy: float = 0.0


def run_op(op, phase: Phase) -> None:
    t0 = time.perf_counter()
    try:
        ok = op.run()
    except Exception:
        ok = False
        traceback.print_exc(file=sys.stderr)
    phase.times.append(time.perf_counter() - t0)
    phase.kinds.append(op.kind)
    if not ok:
        phase.failed += 1
        print(f"FAILED op {len(phase.times) - 1}: {op.kind}", file=sys.stderr)


def run_cycles(workload, seconds: float) -> Phase:
    """Whole cycles until at least `seconds` of op time; the next cycle is
    made outside the timed phase. Every cycle of a run holds the same ops.

    Each cycle runs pinned to one of the CPUs this process may use, taking
    them in turn, so a run's time is spread over them. On a shared host
    other tenants slow each CPU at its own times (here two CPUs' slow
    stretches were nearly uncorrelated); left on one CPU, a run would take
    on whatever that one went through. Pinning once a cycle, not once an
    op, spares the ops a cache emptied by the move. Children of the `cli`
    workload inherit the pin.
    """
    cpus = sorted(os.sched_getaffinity(0))
    phase = Phase()
    cycle = workload.first
    passes = 0
    try:
        while True:
            os.sched_setaffinity(0, {cpus[passes % len(cpus)]})
            start = time.perf_counter()
            for slot, op in enumerate(cycle):
                run_op(op, phase)
                phase.slots.append(slot)
            phase.busy += time.perf_counter() - start
            passes += 1
            if phase.busy >= seconds:
                return phase
            cycle = workload.next_cycle()
    finally:
        os.sched_setaffinity(0, cpus)


def child_seconds(code: str, env: dict) -> float:
    """Wall time of `python -c code` in a child process."""
    from workloads import CHILD_TIMEOUT

    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True, timeout=CHILD_TIMEOUT)
    return time.perf_counter() - t0


def import_seconds(env: dict) -> float:
    """Time a fresh interpreter takes, as it reports it, to import what a
    workload needs before its first op: the harness's `workloads` module,
    which imports `ontolab`, `ontolab.cli.main` (and so numpy) and `gen`."""
    from workloads import CHILD_TIMEOUT

    code = (
        f"import sys, time; sys.path.insert(0, {str(HERE)!r}); "
        "t = time.perf_counter(); import workloads; print(time.perf_counter() - t)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env, check=True, capture_output=True, text=True, timeout=CHILD_TIMEOUT
    )
    return float(out.stdout)


def set_up(cls, seed: int, env: dict) -> tuple:
    """Import (timed in a child), generate the inputs, warm up. The
    harness process has made the same imports already, untimed, so the
    generation and warm-up timed here pay no import cost."""
    imported = import_seconds(env)
    t0 = time.perf_counter()
    workload = cls(seed, ROOT, OUT)
    workload.warm_up()
    return imported + time.perf_counter() - t0, workload


def print_shares(phase: Phase) -> None:
    """Per op kind: share of the op count, share of the op time, median op."""
    by_kind: dict = {}
    for kind, t in zip(phase.kinds, phase.times):
        by_kind.setdefault(kind, []).append(t)
    total = sum(phase.times)
    print("op kinds: share of ops, share of op time, median ms")
    for kind, ts in sorted(by_kind.items()):
        print(f"  {kind:32s} {len(ts) / len(phase.times):7.1%} {sum(ts) / total:7.1%} {statistics.median(ts) * 1000:10.2f}")


def peak_rss_mb(workload_name: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload_name == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def untraced(cls, seed: int, seconds: float, env: dict) -> dict:
    from stats import median_of_means, tail

    setups = []
    for _ in range(SETUP_REPEATS):
        t, workload = set_up(cls, seed, env)
        setups.append(t)
    phase = run_cycles(workload, seconds)
    n = len(phase.times)
    tail_s, pct, beyond = tail(phase.times)
    metrics = {
        "ops_per_s": (n / phase.busy, "1/s"),
        "op_ms_p50": (median_of_means(phase.slots, phase.times) * 1000.0, "ms"),
        "op_ms_tail": (tail_s * 1000.0, "ms"),
        "ok_ratio": ((n - phase.failed) / n, "1"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb(cls.name), "MB"),
    }
    for name, (value, unit) in metrics.items():
        print(f"{name:14s} {value:12.4f} {unit}")
    print(f"failed_ratio   {phase.failed / n:12.4f} 1 ({phase.failed} of {n} ops)")
    print(f"op_ms_p50 is the median over the {len(set(phase.slots))} ops of a cycle of each op's mean time")
    print(f"median of all {n} op times: {statistics.median(phase.times) * 1000.0:.4f} ms")
    print(f"op_ms_tail is percentile {pct:.2f} of {n} ops, {beyond} ops beyond it")
    top = sorted(zip(phase.times, phase.kinds), reverse=True)[: beyond + 1]
    print("  op kinds at and beyond it: " + ", ".join(sorted(k for _, k in top)))
    print(f"setup_s runs: {', '.join(f'{t:.4f}' for t in setups)}; timed phase {phase.busy:.2f} s")
    print_shares(phase)
    return {"attempted": n, "failed": phase.failed, "metrics": metrics}


def signed_census_op():
    """The signed decomposition of zoo:prbox: the one localdecide entry
    point that the CLI does not reach."""
    import gen
    from workloads import Op, signed_op
    from ontolab.cli import zoo

    lop = gen.LadderOp("signed", "zoo", "prbox", zoo.load_model("prbox").payload, False)
    return Op("census signed zoo non-local", lambda: signed_op(lop))


def traced(cls, seed: int, env: dict) -> dict:
    import layers
    from recorder import Recorder
    from workloads import Cli, wide_ops

    interpreter = statistics.median(child_seconds("pass", env) for _ in range(CHILD_REPEATS))
    cli_import = statistics.median(child_seconds("import ontolab.cli.main", env) for _ in range(CHILD_REPEATS))
    core_import = statistics.median(child_seconds("import ontolab", env) for _ in range(CHILD_REPEATS))
    child_ms = {
        "cli.interpreter_ms": interpreter * 1000.0,
        "cli.import_ms": (cli_import - interpreter) * 1000.0,
        "cli.import_core_ms": (core_import - interpreter) * 1000.0,
    }

    _, workload = set_up(cls, seed, env)
    census = []
    if isinstance(workload, Cli):
        workload.set_in_process(True)
    else:
        census_cli = Cli(seed, ROOT, OUT)
        census_cli.set_in_process(True)
        census += census_cli.first
    census += wide_ops(seed)
    census.append(signed_census_op())
    cycle = workload.first

    # Each workload op runs once untraced and once traced, in alternating
    # order, so the overhead compares the same ops in the same state.
    rec = Recorder(layers.TARGETS)
    plain = Phase()
    timed = Phase()
    for i, op in enumerate(cycle + census):
        in_cycle = i < len(cycle)
        if in_cycle and i % 2 == 0:
            run_op(op, plain)
        rec.install()
        rec.op = i
        try:
            run_op(op, timed)
        finally:
            rec.uninstall()
        if in_cycle and i % 2 == 1:
            run_op(op, plain)

    metrics, notes = layers.layer_metrics(rec, child_ms)
    rung_of_op = {i: op.rung for i, op in enumerate(cycle) if op.kind.startswith("decide ")}
    by_rung = layers.decide_p50_by_rung(rec, rung_of_op)
    own = sum(timed.times[: len(cycle)])
    overhead = own / sum(plain.times) - 1.0

    OUT.mkdir(parents=True, exist_ok=True)
    spans_file = OUT / f"spans-{cls.name}-{seed}.json"
    spans_file.write_text(
        json.dumps(
            {
                "workload": cls.name,
                "seed": seed,
                "ops": timed.kinds,
                "spans": [[s.name, s.start, s.end, s.parent, s.op] for s in rec.spans],
                "counters": rec.counters,
            }
        )
    )

    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.4f} {unit}")
    for name, value in notes.items():
        print(f"  {name}: {value}")
    for rung, ms in by_rung.items():
        print(f"localdecide.rung.{rung}.decide_ms_p50 {ms:14.4f} ms")
    print(f"ops: {len(cycle)} of the workload, {len(census)} of the census")
    print(
        f"tracing overhead over the same {len(cycle)} ops: {overhead:+.1%} "
        f"(untraced {sum(plain.times):.3f} s, traced {own:.3f} s)"
    )
    print(f"spans: {len(rec.spans)} written to {spans_file.relative_to(ROOT)}")
    return {
        "attempted": len(plain.times) + len(timed.times),
        "failed": plain.failed + timed.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ontolab" / "__init__.py").is_file():
        print(f"error: no ontolab sources at {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import ontolab
    from workloads import WORKLOADS, child_env

    if not Path(ontolab.__file__).resolve().is_relative_to(SRC):
        print(f"error: ontolab imported from {ontolab.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; pick one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    cls = WORKLOADS[args.workload]
    env = child_env(ROOT)
    if args.trace:
        result = traced(cls, args.seed, env)
    else:
        result = untraced(cls, args.seed, args.seconds, env)
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
            }
        )
    )
    if result["failed"]:
        print(f"FAILED: {result['failed']} of {result['attempted']} ops gave a wrong result", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Print every end-to-end and per-layer metric of every workload, with
units, and the environment they were measured in.

    python3 perfbench/report.py [--seed 1] [--seconds 45]

Runs `run.py` once untraced and once traced per workload, one child at a
time, passes their reports through, and writes everything, environment
included, to perfbench/out/report-<seed>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from workloads import CHILD_TIMEOUT, WORKLOADS, child_env  # noqa: E402


def child_probe(code: str) -> str:
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=child_env(ROOT), capture_output=True, text=True, timeout=CHILD_TIMEOUT
    )
    return proc.stdout.strip() if proc.returncode == 0 else "does not import"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "numpy": child_probe("import numpy; print(numpy.__version__)"),
        # Not a declared dependency; a float-guided solver path would need it.
        "scipy": child_probe("import scipy; print(scipy.__version__)"),
    }


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.rstrip().splitlines()
    # Exit code 1 means some ops failed; the result line is still there.
    if proc.returncode not in (0, 1) or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}")
    print(f"\n== {workload}, seed {seed}, {'traced' if trace else 'untraced'} ==")
    print("\n".join(lines[:-1]))
    return {"report": lines[:-1], **json.loads(lines[-1])}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=45)
    args = parser.parse_args(argv)

    env = environment()
    print("environment: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    results = {}
    for w in WORKLOADS:
        results[w] = {"untraced": run(w, args.seed, args.seconds, 0), "traced": run(w, args.seed, args.seconds, 1)}

    print("\n== summary ==")
    for w, res in results.items():
        for mode in ("untraced", "traced"):
            r = res[mode]
            print(f"{w} {mode}: correct {r['correct']}, {r['failed']} of {r['attempted']} ops failed")
            for name, m in r["metrics"].items():
                print(f"  {name:40s} {m['value']:14.4f} {m['unit']}")
        overhead = [line for line in res["traced"]["report"] if line.startswith("tracing overhead")]
        print(f"  {overhead[0] if overhead else 'tracing overhead not reported'}")
    print("environment: " + ", ".join(f"{k} {v}" for k, v in env.items()))

    out = HERE / "out"
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"report-{args.seed}.json"
    path.write_text(json.dumps({"environment": env, "seed": args.seed, "seconds": args.seconds, "results": results}, indent=1))
    print(f"written to {path.relative_to(ROOT)}")
    return 0 if all(r[m]["correct"] for r in results.values() for m in r) else 1


if __name__ == "__main__":
    sys.exit(main())

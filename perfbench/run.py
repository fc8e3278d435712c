"""Benchmark entry point.

    python3 perfbench/run.py --workload {lattice,grid,cli} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout. The workload runs in a fresh
single-threaded child process (``worker.py``) that imports the package
from the checkout's ``src``; nothing needs installing. The last line
printed is the result object; the line before it records the run's
environment. Both are also written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("lattice", "grid", "cli")
CHILD_TIMEOUT_S = 170


def _revision():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"   # not a git checkout; do not let git search above ROOT
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _child_env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("NETDESIGN_THREADS", None)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    if not os.path.isfile(os.path.join(ROOT, "src", "netdesign", "__init__.py")):
        print(f"no package source under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    run_dir = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--root", ROOT, "--out-dir", run_dir]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        sys.stderr.write((exc.stderr or b"").decode() if isinstance(exc.stderr, bytes)
                         else (exc.stderr or ""))
        print(f"workload {args.workload} did not finish in {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 3
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        print(f"workload {args.workload} exited with code {proc.returncode}", file=sys.stderr)
        return 4
    info = json.loads(lines[-2])["info"]
    result = json.loads(lines[-1])
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    want = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        print(f"metrics {sorted(got.items())} do not match BENCHMARK.json {sorted(want.items())}",
              file=sys.stderr)
        return 5

    info.update({
        "git_revision": _revision(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "seconds": args.seconds,
        "trace": args.trace,
    })
    os.makedirs(OUT, exist_ok=True)
    with open(run_dir + ".json", "w", encoding="utf-8") as fh:
        json.dump({"info": info, "result": result}, fh, indent=2, sort_keys=True)
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One workload run in its own process; started by ``run.py``.

Set-up (input generation and validation, document writing and one
warm-up operation on a fixed extra seed) is repeated ``SETUP_REPEATS``
times and its median reported. The timed part then makes whole passes
over the input pool, one operation after another, until ``--seconds`` have
passed. On a shared machine the same work
can run up to 1.9 times slower for seconds at a time, so every set-up and
every pass is put on a reference speed with the ``calib`` kernel run right
after it, and each input's time is the median of its passes.
Peak RSS is read before the checks import scipy. Every output, the
warm-up's included, is then checked. The last line printed is the result.

With ``--trace 1`` each operation runs twice on the same input, first
untraced and then with spans, and the per-layer metrics come from the
traced pass; the difference between the two passes is the tracing
overhead.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import resource
import shutil
import statistics
import sys
import time

SETUP_REPEATS = 5
WARMUP_SEED = "warm-up"


def _load_package(root):
    import netdesign

    where = os.path.realpath(netdesign.__file__)
    if not where.startswith(os.path.join(os.path.realpath(root), "src") + os.sep):
        raise SystemExit(f"netdesign imported from {where}, not from this checkout")
    return netdesign


def _same_outputs(dir_a, dir_b):
    names = sorted(os.listdir(dir_a))
    if names != sorted(os.listdir(dir_b)):
        return False
    return all(filecmp.cmp(os.path.join(dir_a, n), os.path.join(dir_b, n), shallow=False)
               for n in names)


def _dir_bytes(path):
    return sum(os.path.getsize(os.path.join(path, n)) for n in os.listdir(path))


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--root", required=True)
    ap.add_argument("--out-dir", required=True)
    args = ap.parse_args(argv)

    _load_package(args.root)
    import calib
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    out_dir = args.out_dir
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)

    # -- set-up ---------------------------------------------------------------
    setup_times = []
    setup_kernel = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        pool = [wl.build(f"{args.seed}-{k}", k, out_dir) for k in range(wl.pool)]
        warm = wl.build(WARMUP_SEED, wl.pool, out_dir)
        warm_dir = os.path.join(out_dir, "warm-up")
        warm_raw = wl.run(warm, warm_dir)
        setup_times.append(time.perf_counter() - t0)
        setup_kernel.append(calib.run())
    warm_digest = wl.digest(warm, warm_raw)
    del warm_raw

    # -- timed part -------------------------------------------------------------
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
    times = [[] for _ in pool]        # every timed run of each input
    untraced = [[] for _ in pool]     # traced run only: the plain pass
    kernel_s = [[] for _ in pool]     # the kernel run after each of them
    done = []                         # (pool index, op dir, digest, traced == untraced)
    t_start = time.perf_counter()
    op = 0
    while op == 0 or time.perf_counter() - t_start < args.seconds:
        for k, item in enumerate(pool):   # whole passes over the pool
            op_dir = os.path.join(out_dir, f"op{op}")
            same = True
            if tracer is not None:
                plain_dir = op_dir + "-untraced"
                t0 = time.perf_counter()
                plain = wl.run(item, plain_dir)
                untraced[k].append(time.perf_counter() - t0)
                tracer.install()
                try:
                    t0 = time.perf_counter()
                    with tracer.root(op):
                        raw = wl.run(item, op_dir)
                    times[k].append(time.perf_counter() - t0)
                finally:
                    tracer.uninstall()
                same = wl.digest(item, plain) == wl.digest(item, raw)
                if os.path.isdir(op_dir):
                    same = same and _same_outputs(op_dir, plain_dir)
                del plain
            else:
                t0 = time.perf_counter()
                raw = wl.run(item, op_dir)
                times[k].append(time.perf_counter() - t0)
            done.append((k, op_dir, wl.digest(item, raw), same))
            del raw
            op += 1
            kernel_s[k].append(calib.run())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # -- checks -----------------------------------------------------------------
    t_checks = time.perf_counter()
    import checks

    def problems_of(item, op_dir, digest):
        if args.workload == "cli":
            return checks.check_cli(item, digest, op_dir)
        return getattr(checks, f"check_{args.workload}")(item, digest)

    warm_problems = problems_of(warm, warm_dir, warm_digest)
    failed = 0
    notes = [f"warm-up: {p}" for p in warm_problems]
    first = {}   # input -> (op dir, digest, problems) of its first pass
    for op, (k, op_dir, digest, same) in enumerate(done):
        problems = [] if same else ["traced and untraced outputs differ"]
        if k in first:
            # a repeat must reproduce the first pass's output exactly, and
            # shares its verdict
            first_dir, first_digest, first_problems = first[k]
            problems += first_problems
            if digest != first_digest or (os.path.isdir(op_dir)
                                          and not _same_outputs(first_dir, op_dir)):
                problems.append(f"output differs from the first pass over input {k}")
        else:
            checked = problems_of(pool[k], op_dir, digest)
            if args.workload == "cli" and op == 0:
                checked += _rerun_cli(pool[0], out_dir, op_dir)
            first[k] = (op_dir, digest, checked)
            problems += checked
        if problems:
            failed += 1
            notes += [f"op {op}: {p}" for p in problems[:5]]

    # each pass at reference speed, then each input's median pass
    scaled = [[t * calib.scale(c) for t, c in zip(ts, cs)] for ts, cs in zip(times, kernel_s)]
    per_input = [statistics.median(ts) for ts in scaled]
    info = {
        "workload": args.workload, "seed": args.seed, "ops": len(done),
        "passes": len(times[0]), "op_p50_samples": len(per_input),
        "setup_repeats": SETUP_REPEATS, "setup_samples_s": setup_times, "pool": wl.pool,
        "op_times_s": times, "kernel_s": kernel_s,
        "setup_kernel_s": setup_kernel,
        "check_s": time.perf_counter() - t_checks,
    }
    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(
                t * calib.scale(c) for t, c in zip(setup_times, setup_kernel)), "s"),
            "ops_per_s": (len(per_input) / sum(per_input), "1/s"),
            "op_p50_s": (statistics.median(per_input), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        metrics = _layer_metrics(tracer, scaled, untraced, kernel_s, done, args.workload)
        info["spans_file"] = _write_spans(tracer, out_dir)
    correct = failed == 0 and not warm_problems
    for n in notes[:20]:
        print(f"check: {n}", file=sys.stderr)
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": correct, "attempted": len(done), "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def _rerun_cli(item, out_dir, first_op_dir):
    """Run the first session's design command again; its report and CSV
    must come out byte-identical."""
    import netdesign.cli as nd_cli
    import contextlib
    import io

    import workloads

    again = os.path.join(out_dir, "rerun")
    os.makedirs(again, exist_ok=True)
    problems = []
    for label, argv in workloads.session_commands(item, again):
        if label != "design_mc":
            continue
        with contextlib.redirect_stdout(io.StringIO()):
            code = nd_cli.main(argv)
        for ext in (".json", ".csv"):
            a = os.path.join(first_op_dir, label + ext)
            b = os.path.join(again, label + ext)
            if code != 0 or not filecmp.cmp(a, b, shallow=False):
                problems.append(f"{label}{ext} differs on a re-run")
    return problems


def _layer_metrics(tracer, scaled, untraced, kernel_s, done, workload):
    import calib
    import tracing

    n = len(done)
    n_pool = len(scaled)
    # operation ids run pass by pass over the pool
    op_scale = {op: calib.scale(kernel_s[op % n_pool][op // n_pool]) for op in range(n)}
    tot = tracing.layer_totals(tracer.spans, op_scale)
    plain = [[t * calib.scale(c) for t, c in zip(ts, cs)] for ts, cs in zip(untraced, kernel_s)]
    if workload == "cli":
        tot["cli.report_bytes"] = float(sum(_dir_bytes(d) for _, d, _, _ in done))
    per_op = {}
    seconds = ("network.enumerate_s", "network.union_s", "routing.mc_s", "routing.so_s",
               "routing.ue_s", "routing.self_s", "routing.certify_s", "simplex.lp_s",
               "design.self_s", "jsonio.load_s", "cli.self_s", "bench.self_s", "trace.op_s")
    counts = ("network.paths_enumerated", "network.unions", "routing.solves",
              "routing.iterations", "routing.paths_used", "simplex.pivots", "simplex.columns",
              "design.lambda_evals", "design.distinct_subsets", "cli.report_bytes",
              "trace.spans")
    for name in seconds:
        per_op[name] = (tot[name] / n, "s")
    for name in counts:
        per_op[name] = (tot[name] / n, "count")
    per_op["routing.paths_used_ratio"] = (
        tot["routing.paths_used"] / tot["routing.columns"] if tot["routing.columns"] else 0.0,
        "ratio")
    per_op["design.reuse_ratio"] = (
        tot["design.distinct_subsets"] / tot["design.lambda_evals"]
        if tot["design.lambda_evals"] else 0.0, "ratio")
    per_op["trace.untraced_op_s"] = (sum(sum(ts) for ts in plain) / n, "s")
    # per input, median traced pass less median plain pass
    per_op["trace.overhead_s"] = (sum(
        statistics.median(t) - statistics.median(u) for t, u in zip(scaled, plain)) / n_pool, "s")
    return per_op


def _write_spans(tracer, out_dir):
    path = os.path.join(out_dir, "spans.jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        for rec in tracer.spans:
            name, start, end, parent, op = rec[:5]
            fh.write(json.dumps([name, start, end, parent, op]) + "\n")
    return path


if __name__ == "__main__":
    sys.exit(main())

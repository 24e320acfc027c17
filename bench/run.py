"""cmvscat benchmark: one workload, one seed, one closed-loop client in one process.

Run from the repository root:

    python3 bench/run.py --workload defaults --seed 1 --seconds 15 --trace 0

Workloads are listed in BENCHMARK.json and defined in bench/workloads.py.
Each op drives `cmvscat.cli.main(argv)` in-process and every op's output
is checked after the timed loop. With `--trace 0` the run prints the
end-to-end metrics; with `--trace 1` it runs the same ops untraced and
then traced, checks that both produce byte-identical files, and prints
the per-layer metrics from the traced pass (spans go to .bench_out/).

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`; the line before it holds the run's
details (inputs, percentile and sample count of the tail, exit codes,
check violations, BLAS thread settings). The benchmark leaves the BLAS
thread count as the environment sets it and only records it.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from collections import Counter

import numpy as np
import scipy
import scipy.linalg  # noqa: F401  loaded before timing, so set-up times cmvscat alone

import tracer as tr
import workloads as wl

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_REPS = 3  # import and input generation are repeated; the median counts
TAIL_BEYOND = 10
MIN_OPS = 3  # so that a run of multi-second ops still has a middle op


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def environment():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        openblas = None
    nproc = len(os.sched_getaffinity(0))
    env = {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    return {
        **env,
        "nproc": nproc,
        # OpenBLAS runs one thread per core unless the environment caps it
        "blas_threads_effective": int(env["OPENBLAS_NUM_THREADS"] or env["OMP_NUM_THREADS"]
                                      or nproc),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
    }


def tail(times):
    """Highest percentile with at least TAIL_BEYOND ops beyond it, and that percentile.

    Below 2 * TAIL_BEYOND + 1 ops that percentile lies under the median,
    so the tail falls back to the median (percentile 50).
    """
    ordered = sorted(times)
    n = len(ordered)
    if n < 2 * TAIL_BEYOND + 1:
        return statistics.median(ordered), 50.0
    k = n - TAIL_BEYOND - 1
    return ordered[k], 100.0 * (k + 1) / n


def timed_loop(work, seconds, count=None, trace=None):
    """Closed loop: the next op starts when the previous one ends.

    Runs for `seconds` and at least MIN_OPS ops, or exactly `count` ops.
    """
    records = []
    start = time.perf_counter()
    i = 0
    while True:
        if trace is not None:
            trace.op = i
        records.append((i, *wl.run_op(work.prog.cli, work.steps(i), work.workdir)))
        i += 1
        if count is not None:
            if i >= count:
                break
        elif i >= MIN_OPS and time.perf_counter() - start >= seconds:
            break
    return records, time.perf_counter() - start


def verify(work, records):
    """Check every op's output; returns (results, failures)."""
    results, failures = [], []
    for pos, (i, _, codes, data, error) in enumerate(records):
        if error is None:
            try:
                results.append((i, work.verify(i, codes, data)))
                continue
            except wl.OpFailure as exc:
                error = str(exc)
        failures.append({"pos": pos, "op": i, "input": work.input_of(i), "reason": error})
    return results, failures


def run(args, workdir):
    e2e_units, layer_units = declared_metrics()
    reps = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        prog = wl.load_program(SRC)
        work = wl.WORKLOADS[args.workload](prog, args.seed, workdir)
        reps.append(time.perf_counter() - t0)
    warm = (0, *wl.run_op(prog.cli, work.steps(0), workdir))
    setup_s = statistics.median(reps) + warm[1]

    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "inputs": {"families": work.pool}, "anchor": wl.ANCHOR,
        "setup": {"import_and_inputs_s": reps, "warmup_op_s": warm[1]},
        "env": environment(),
    }

    if args.trace:
        untraced, _ = timed_loop(work, args.seconds / 2)
        trace = tr.Tracer().install()
        try:
            traced, _ = timed_loop(work, None, count=len(untraced), trace=trace)
        finally:
            trace.uninstall()
        # the untraced pass is checked through its byte equality with the traced one
        records = [warm] + traced
        attempted = len(records)
        results, failures = verify(work, records)
        for pos, (a, b) in enumerate(zip(untraced, traced), start=1):
            if a[3] != b[3]:
                failures.append({"pos": pos, "op": a[0], "input": work.input_of(a[0]),
                                 "reason": "traced outputs differ from untraced outputs"})
        t_plain = sum(r[1] for r in untraced)
        values = tr.layer_metrics(trace.spans, len(traced))
        values["trace.overhead_frac"] = (sum(r[1] for r in traced) - t_plain) / t_plain
        path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
        trace.write(path)
        detail.update(ops=len(traced), spans=len(trace.spans), spans_file=path)
        units = layer_units
    else:
        timed, wall = timed_loop(work, args.seconds)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        records = [warm] + timed
        attempted = len(records)
        results, failures = verify(work, records)
        times = [r[1] for r in timed]
        op_tail, pct = tail(times)
        anchor = [r["roundtrip_err"] for i, r in results if work.is_anchor(i)]
        seeded = [r["roundtrip_err"] for i, r in results if not work.is_anchor(i)]
        oracle_dev = work.oracle_dev(results)
        values = {
            "setup_s": setup_s,
            "op_p50_s": statistics.median(times),
            "op_tail_s": op_tail,
            "inputs_per_s": len(timed) / wall,
            "peak_rss_mb": rss_mb,
            # 0 digits when the anchor op failed, so the run cannot pass as accurate
            "roundtrip_digits": wl.digits(max(anchor)) if anchor else 0.0,
            "oracle_digits": wl.digits(oracle_dev) if oracle_dev is not None else 0.0,
        }
        detail.update(
            ops=len(timed), timed_wall_s=wall, op_tail_percentile=pct,
            op_tail_samples=len(times), op_times_s=[round(t, 5) for t in times],
            roundtrip_err_anchor=max(anchor) if anchor else None,
            roundtrip_err_seeded_worst=max(seeded) if seeded else None,
            oracle_dev_anchor=oracle_dev,
        )
        units = e2e_units

    codes = Counter(str(r[2][-1]) if r[2] else "none" for r in records)
    violations = {}
    for i, r in results:
        if r.get("violations"):
            violations.setdefault(work.input_of(i), r["violations"])
    failed = {f["pos"] for f in failures}
    nonzero = {pos for pos, r in enumerate(records) if not r[2] or r[2][-1] != 0}
    detail.update(
        # inputs of the timed ops, as indices into inputs.families
        op_inputs=[work.pool.index(work.input_of(r[0])) for r in records[1:]],
        exit_codes=codes, violations=violations, failures=failures[:10],
        # ops failed in the wider sense: any exit code other than 0 (so certify's
        # exit 3 verdicts count), an escaped exception or a failed output check
        fail_frac=len(failed | nonzero) / attempted,
    )

    missing = set(units) - set(values)
    if missing:
        raise RuntimeError(f"metrics not computed: {sorted(missing)}")
    metrics = {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()}
    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps({"detail": detail}, default=float))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failed), "metrics": metrics}))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "cmvscat", "__init__.py")):
        print(f"error: no cmvscat sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

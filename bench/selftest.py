"""Self-test of the benchmark's tracer: the trace sees all the traffic.

Run from the repository root:

    python3 bench/selftest.py

Three CLI probes on the README example run once untraced and once traced.
For each probe:
- the traced run's output files must be byte-identical to the untraced run's;
- the span count of every wrapped function must equal the call count
  taken independently by a profile hook on the original code objects;
- the counts named in EXPECTED must match the values recorded for this
  code (a change to the algorithms changes them and must update them).
Exit status 0 when every line passes, 1 otherwise.
"""

import os
import shutil
import sys
import tempfile
from collections import Counter

import tracer as tr
import workloads as wl
from run import OUT, SRC

EXPECTED = {
    "inverse": {"lrspace.converged_defect_pair": 67, "lrspace.defect_pair": 134},
    "direct": {"scattering.boundary_reconstruction": 1, "cmv.build_cmv": 2,
               "cmv.resolvent_solve": 4096},
    "check": {"lrspace.defect_pair": 609, "cmv.resolvent_solve": 8192,
              "oracle.oracle_verblunsky": 1},
}
# defect_pair calls of the check probe by caller, and distinct (n, m, N) keys
CHECK_PARENTS = {"lrspace.converged_defect_pair": 606, "checks.check_gram_structure": 3}
CHECK_DISTINCT = 339


def probes(workdir):
    a = os.path.join(workdir, "alphas.json")
    return {
        "inverse": [(["inverse", "--family", wl.ANCHOR, "--out", a,
                      "--report", os.path.join(workdir, "report.json")], {0},
                     ("alphas.json", "report.json"))],
        "direct": [(["direct", "--alphas", a, "--out", os.path.join(workdir, "rec.json")],
                    {0}, ("rec.json",))],
        "check": [(["check", "--family", wl.ANCHOR, "--out",
                    os.path.join(workdir, "check.json")], {0, 3}, ("check.json",))],
    }


def traced_run(prog, steps, workdir):
    """Run `steps` under the tracer and a profile hook.

    Returns (spans, profiled call counts, wrapped names, outputs, error).
    """
    trace = tr.Tracer().install()
    names = trace.wrapped_names()
    seen = Counter()

    def hook(frame, event, arg):
        if event == "call" and frame.f_code in names:
            seen[names[frame.f_code]] += 1

    sys.setprofile(hook)
    try:
        _, _, data, error = wl.run_op(prog.cli, steps, workdir)
    finally:
        sys.setprofile(None)
        trace.uninstall()
    return trace.spans, seen, set(names.values()), data, error


def main():
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=OUT)
    lines = []

    def report(ok, text):
        lines.append(ok)
        print(f"[{'PASS' if ok else 'FAIL'}] {text}")

    try:
        prog = wl.load_program(SRC)
        for name, steps in probes(workdir).items():
            _, _, plain, error = wl.run_op(prog.cli, steps, workdir)
            report(error is None, f"{name}: untraced run ({error or 'ok'})")
            spans, seen, wrapped, traced, error = traced_run(prog, steps, workdir)
            report(error is None, f"{name}: traced run ({error or 'ok'})")
            report(plain == traced and bool(plain),
                   f"{name}: traced outputs byte-identical ({sorted(plain)})")
            counts = Counter(s[0] for s in spans)
            missed = {n: (counts[n], seen[n]) for n in wrapped if counts[n] != seen[n]}
            report(not missed, f"{name}: spans match profiled calls for {len(wrapped)} "
                               f"functions (span, profiled) mismatches {missed}")
            for fn, want in EXPECTED[name].items():
                report(counts[fn] == want, f"{name}: {fn} calls {counts[fn]} (expected {want})")
            if name == "check":
                pairs = [s for s in spans if s[0] == "lrspace.defect_pair"]
                parents = Counter(spans[s[3]][0] if s[3] >= 0 else None for s in pairs)
                report(dict(parents) == CHECK_PARENTS,
                       f"check: defect_pair callers {dict(parents)} (expected {CHECK_PARENTS})")
                distinct = len({s[5] for s in pairs})
                report(distinct == CHECK_DISTINCT,
                       f"check: distinct (n, m, N) {distinct} (expected {CHECK_DISTINCT})")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{sum(lines)}/{len(lines)} passed")
    return 0 if all(lines) else 1


if __name__ == "__main__":
    sys.exit(main())

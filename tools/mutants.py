"""Mutation probe: does Tier-1 see each of a list of one-edit mutants of the package?

Each mutant is (name, file, exact source text, replacement); the text
occurs exactly once in its file. For each mutant the probe copies the
repository (without .git) into a temporary directory, makes the one
edit there, and runs Tier-1 on the copy with `-x`, so pytest stops at
the first failure; tests/test_mutants.py, which holds the source texts
to today's source, sits out. It then runs the README `check` example on
the copy. Mutants run one at a time, at one BLAS thread. Each prints one
line: killed (a test failed), survived (Tier-1 passed) or timeout, the
wall time of Tier-1, the first failing test, and the `check` entries
that fail (or its exit code when it writes no report). A mutant listed
in EQUIVALENT is still run; its line gives the measured reason.

    python3 tools/mutants.py            # every mutant
    python3 tools/mutants.py NAME ...   # the named mutants
    python3 tools/mutants.py --check    # only check that each text occurs once
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TIMEOUT_S = 600
CHECK_EXAMPLE = ["check", "--family", "random,degree=4,margin=0.2,seed=0"]

MUTANTS = [
    ("rotation-conj", "src/cmvscat/verblunsky.py",
     "r2 = right.Ktilde - (rho * base.Ktilde - np.conj(alpha) * up.K)",
     "r2 = right.Ktilde - (rho * base.Ktilde - alpha * up.K)"),
    ("union-alpha-sign", "src/cmvscat/verblunsky.py",
     "alphas = -ell[pos] / np.sqrt(1.0 - s[pos])",
     "alphas = ell[pos] / np.sqrt(1.0 - s[pos])"),
    ("reach-start", "src/cmvscat/lrspace.py",
     "N0 = N = cfg.section_start if R.fourier_tails[0] < tol else max(cfg.section_start, d - lo)",
     "N0 = N = cfg.section_start"),
    ("density-cap", "src/cmvscat/cli.py",
     "spectral.spectral_density(R, converged_defect_pair(R, n, n, cfg))",
     "spectral.spectral_density(R, converged_defect_pair(R, n, n, cfg.replace(section_cap=64)))"),
    ("schur-step-conj", "src/cmvscat/verblunsky.py",
     "bot = 1.0 - t * omega.samples * np.conj(alpha)",
     "bot = 1.0 - t * omega.samples * alpha"),
    ("cmv-band-conj", "src/cmvscat/cmv.py",
     "0: -np.conj(am1) * a0,",
     "0: -am1 * a0,"),
    ("cmv-edge-level", "src/cmvscat/cmv.py",
     "lo, hi = max(seq.lo, -W - 1), min(seq.hi, W)",
     "lo, hi = max(seq.lo, -W - 1), min(seq.hi, W - 1)"),
    ("products-antianalytic-index", "src/cmvscat/lrspace.py",
     "b[-(frame.m + p + 1 + i) % M]",
     "b[-(frame.m + p + i) % M]"),
    ("union-a0-scale", "src/cmvscat/verblunsky.py",
     "a0s = L[pos, pos].real * np.sqrt(1.0 - np.abs(alphas) ** 2)",
     "a0s = (1 + 1e-9) * L[pos, pos].real * np.sqrt(1.0 - np.abs(alphas) ** 2)"),
    ("moment-horizon", "src/cmvscat/scattering.py",
     "return max(0, min(-seq.lo, W + 1))",
     "return max(0, min(-seq.lo, W + 1)) + 1"),
    ("sigma-level-twice", "src/cmvscat/spectral.py",
     "s0, s1 = _renormalized(pair_j), _renormalized(pair_next)",
     "s0, s1 = _renormalized(pair_j), _renormalized(pair_j)"),
    ("quadrature-forms-conj", "src/cmvscat/oracle.py",
     'np.einsum("pcx,xcd,qdx->pqx", np.conj(phi), weight, phi)',
     'np.einsum("pcx,xcd,qdx->pqx", phi, weight, phi)'),
    ("cmv-band-rho", "src/cmvscat/cmv.py",
     "-2: np.where(odd, 0.0, rm1 * rm2),",
     "-2: np.where(odd, 0.0, rm1 * rm1),"),
    ("density-decoupled-past-64", "src/cmvscat/spectral.py",
     "    V = defect_samples(pair)\n",
     "    if pair.frame.N > 64:  # K = g'_n\n"
     "        from .lrspace import DefectPair, generator\n"
     "        pair = DefectPair(generator(R, \"analytic\", n, pair.frame), pair.Ktilde, 1.0, 1.0)\n"
     "    V = defect_samples(pair)\n"),
    ("telescope-own-ratios", "src/cmvscat/verblunsky.py",
     "prods = np.multiply.accumulate(rhos[::-1])[::-1]",
     "prods = np.multiply.accumulate((a0s[:-1] / a0s[1:])[::-1])[::-1]"),
    ("cgs-one-pass", "src/cmvscat/oracle.py",
     "for _ in range(2):",
     "for _ in range(1):"),
    ("rotation-handed-next-level", "src/cmvscat/checks.py",
     "base, after = pairs[j], pairs[j + 1]",
     "base, after = pairs[j + 1], pairs[j + 1]"),
    ("split-shift-sign", "src/cmvscat/lrspace.py",
     "p = n - pair.frame.n",
     "p = pair.frame.n - n"),
    ("check-reach-dropped", "src/cmvscat/checks.py",
     "frame, rungs = scattering.rung_sequences(R, cfg, reach=5)",
     "frame, rungs = scattering.rung_sequences(R, cfg)"),
    ("rung-slice-off-by-one", "src/cmvscat/verblunsky.py",
     "i, k = lo - self.lo, hi + 1 - self.lo",
     "i, k = lo + 1 - self.lo, hi + 2 - self.lo"),
]

# mutants that change no number beyond TOL_FUN on any input measured, and why
EQUIVALENT = {
    "cgs-one-pass": (
        "one and two Gram-Schmidt passes give the oracle's alpha and a0 within "
        "1.1e-16 on the README families, the seed-1 bench pool (24 inputs) and "
        "J = 64, and within 2.1e-13 on inputs with margins down to 1e-8; TOL_FUN is 1e-6"),
}


def check_patterns(root=ROOT):
    """(name, count) of every mutant whose text does not occur exactly once."""
    bad = []
    for name, path, text, _ in MUTANTS:
        with open(os.path.join(root, path), encoding="utf-8") as fh:
            count = fh.read().count(text)
        if count != 1:
            bad.append((name, count))
    return bad


def _first_failure(output):
    for line in output.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" ", 1)[1].split(" - ")[0]
    return ""


def check_summary(report_path, returncode):
    """The failing entries of a `check` report, or its exit code when it wrote none."""
    try:
        with open(report_path, encoding="utf-8") as fh:
            checks = json.load(fh)["checks"]
    except (OSError, ValueError, KeyError, TypeError):
        return f"check exit {returncode}"
    failing = [c["name"] for c in checks if not c["passed"]]
    return "check fails " + ",".join(failing) if failing else "check passes"


def _run_check(copy, env):
    report = os.path.join(copy, "check.json")
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "cmvscat.cli", *CHECK_EXAMPLE, "--out", report],
            cwd=copy, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "check timeout"
    return check_summary(report, proc.returncode)


def run_mutant(name, path, text, replacement, root=ROOT):
    """(verdict, first failing test, seconds, check summary) on a mutated copy of root."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = os.path.join(tmp, "repo")
        shutil.copytree(root, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis"))
        target = os.path.join(copy, path)
        with open(target, encoding="utf-8") as fh:
            source = fh.read()
        with open(target, "w", encoding="utf-8") as fh:
            fh.write(source.replace(text, replacement, 1))
        env = dict(os.environ, PYTHONPATH=os.path.join(copy, "src"),
                   OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                # the pattern test would fail on any mutated copy, so it sits out
                [sys.executable, "-m", "pytest", "-x", "-q", "-rfE", "-p", "no:cacheprovider",
                 "--continue-on-collection-errors", "--ignore=tests/test_mutants.py"],
                cwd=copy, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
            verdict = "survived" if proc.returncode == 0 else "killed"
            first = _first_failure(proc.stdout)
        except subprocess.TimeoutExpired:
            verdict, first = "timeout", ""
        seconds = time.perf_counter() - start
        return verdict, first, seconds, _run_check(copy, env)


def main(argv):
    bad = check_patterns()
    if bad:
        for name, count in bad:
            print(f"{name}: its source text occurs {count} times, not once")
        return 2
    if argv == ["--check"]:
        print(f"{len(MUTANTS)} mutants, each source text found once")
        return 0
    unknown = set(argv) - {m[0] for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}")
        return 2
    for name, path, text, replacement in MUTANTS:
        if argv and name not in argv:
            continue
        verdict, first, seconds, check = run_mutant(name, path, text, replacement)
        note = f"  [equivalent: {EQUIVALENT[name]}]" if name in EQUIVALENT else ""
        print(f"{name:28s} {verdict:9s} {seconds:6.1f} s  {first or '-'}  {check}{note}",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Workloads of the cmvscat benchmark: seeded inputs, CLI command chains and output checks.

One op is one input through a workload's command chain, run in-process
through `cmvscat.cli.main(argv)`. The program sees only the generated
`--family` strings and the files it wrote itself.
"""

import contextlib
import importlib
import io
import json
import math
import os
import sys
import time
import types

import numpy as np

# The README `check` example. It is the first input of every workload, so
# the accuracy metrics always include it; it exits 3 at the defaults
# (roundtrip sup error 2.93e-3 > 1e-3), which `certify` records.
ANCHOR = "random,degree=4,margin=0.2,seed=0"
FAMILIES = ("monomial", "blaschke", "random")
ERROR_FLOOR = 1e-17  # an error of exactly 0 reads as 17 digits


class OpFailure(Exception):
    """An op whose exit code or output breaks the program's contract."""


def load_program(src):
    """Import cmvscat afresh from `src` (dropping any copy already imported)."""
    for name in [n for n in sys.modules if n == "cmvscat" or n.startswith("cmvscat.")]:
        del sys.modules[name]
    if sys.path[0] != src:
        sys.path.insert(0, src)
    importlib.invalidate_caches()
    cli = importlib.import_module("cmvscat.cli")
    pkg = sys.modules["cmvscat"]
    if not os.path.abspath(pkg.__file__).startswith(os.path.abspath(src) + os.sep):
        raise ImportError(f"cmvscat imported from {pkg.__file__}, not from {src}")
    return types.SimpleNamespace(
        cli=cli,
        config=importlib.import_module("cmvscat.config"),
        families=importlib.import_module("cmvscat.families"),
        circle=importlib.import_module("cmvscat.circle"),
        oracle=importlib.import_module("cmvscat.oracle"),
    )


# ----------------------------------------------------------------------------
# seeded inputs


def family_strings(rng, count):
    """`count` family strings over monomial, blaschke and random in turn.

    Degree 2-8 and margin 0.2-0.35 (sup |R| = 1 - margin); Blaschke zeros
    lie in |a| <= 0.5 with uniform phase.
    """
    out = []
    for i in range(count):
        kind = FAMILIES[i % len(FAMILIES)]
        degree = int(rng.integers(2, 9))
        margin = float(rng.uniform(0.2, 0.35))
        if kind == "monomial":
            out.append(f"monomial,gamma={1 - margin:.4f},k={degree}")
        elif kind == "blaschke":
            zs = rng.uniform(0.0, 0.5, degree) * np.exp(2j * np.pi * rng.uniform(size=degree))
            zeros = ";".join(f"{z.real:.4f}{z.imag:+.4f}j" for z in zs)
            out.append(f"blaschke,r={1 - margin:.4f},zeros={zeros}")
        else:
            out.append(f"random,degree={degree},margin={margin:.4f},"
                       f"seed={int(rng.integers(0, 2**31))}")
    return out


# ----------------------------------------------------------------------------
# running one op


def run_op(cli, steps, workdir):
    """Run one op's command chain; failed ops are still timed.

    `steps` is a list of (argv, allowed exit codes, output names). The
    chain stops at the first step whose exit code is not allowed.
    Returns (seconds, exit codes, {output name: bytes}, error or None).
    """
    outputs = {name for _, _, names in steps for name in names}
    for name in outputs:
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(workdir, name))
    codes, error = [], None
    sink = io.StringIO()
    t0 = time.perf_counter()
    for argv, allowed, _ in steps:
        try:
            with contextlib.redirect_stderr(sink), contextlib.redirect_stdout(sink):
                code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # an escaped exception fails the op, not the run
            error = f"escaped {type(exc).__name__}: {exc}"
            break
        codes.append(code)
        if code not in allowed:
            error = f"{argv[0]} exited {code}: {sink.getvalue().strip()[-300:]}"
            break
    seconds = time.perf_counter() - t0
    if error is None and "Traceback" in sink.getvalue():
        error = "traceback on stderr"
    data = {}
    for name in outputs:
        with contextlib.suppress(FileNotFoundError), open(os.path.join(workdir, name), "rb") as fh:
            data[name] = fh.read()
    return seconds, codes, data, error


# ----------------------------------------------------------------------------
# output checks


def _finite_json(raw, what):
    try:
        obj = json.loads(raw)
    except (ValueError, UnicodeDecodeError) as exc:
        raise OpFailure(f"{what}: not JSON ({exc})") from exc
    stack = [obj]
    while stack:
        x = stack.pop()
        if isinstance(x, dict):
            stack.extend(x.values())
        elif isinstance(x, list):
            stack.extend(x)
        elif isinstance(x, float) and not math.isfinite(x):
            raise OpFailure(f"{what}: non-finite number")
    return obj


def _pairs(rows, what):
    arr = np.asarray(rows, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise OpFailure(f"{what}: expected [re, im] pairs")
    return arr[:, 0] + 1j * arr[:, 1]


def _output(data, name):
    if name not in data:
        raise OpFailure(f"missing output {name}")
    return data[name]


def check_alphas(raw, J):
    """Coefficient file over [-J, J]: 2J+1 finite entries with |alpha| < 1."""
    obj = _finite_json(raw, "alphas")
    alphas = _pairs(obj.get("alphas", []), "alphas")
    if obj.get("lo") != -J or alphas.size != 2 * J + 1:
        raise OpFailure(f"alphas: expected 2J+1 = {2 * J + 1} entries from {-J}, "
                        f"got {alphas.size} from {obj.get('lo')}")
    if not np.all(np.abs(alphas) < 1.0):
        raise OpFailure("alphas: |alpha| >= 1")
    return alphas


def check_reconstruction(raw, count):
    """Reconstruction file with `count` finite (z, R) pairs; returns the R values."""
    obj = _finite_json(raw, "reconstruction")
    zs, vals = _pairs(obj.get("z", []), "z"), _pairs(obj.get("R", []), "R")
    if zs.size != count or vals.size != count:
        raise OpFailure(f"reconstruction: expected {count} values, got {vals.size}")
    return vals


def check_density(raw, M):
    text = raw.decode()
    lines = text.strip().splitlines()
    if len(lines) != M + 1:
        raise OpFailure(f"density: expected {M} rows, got {len(lines) - 1}")
    try:
        rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    except ValueError as exc:
        raise OpFailure(f"density: {exc}") from exc
    if rows.shape != (M, 9) or not np.all(np.isfinite(rows)):
        raise OpFailure("density: expected 9 finite columns")


def check_report(raw, rc):
    """`check` report: exit 0 iff every check passed, 3 otherwise; finite values."""
    obj = _finite_json(raw, "check report")
    checks = obj.get("checks")
    if not isinstance(checks, list) or not checks:
        raise OpFailure("check report: no checks")
    passed = all(c["passed"] for c in checks)
    if obj.get("all_passed") is not passed or rc != (0 if passed else 3):
        raise OpFailure(f"check report: exit {rc} disagrees with all_passed={passed}")
    return {c["name"]: c for c in checks}


def digits(err):
    return -math.log10(max(err, ERROR_FLOOR))


# ----------------------------------------------------------------------------
# workloads


class Workload:
    """Base: seeded input pool, op steps and output checks."""

    name = ""
    seeded = 24  # seeded inputs after the anchor; ops cycle over the pool
    # Heavy workloads fit only a few ops in a run; alternating the anchor with
    # the seeded inputs keeps their median steady from seed to seed.
    interleave = False

    def __init__(self, prog, seed, workdir):
        self.prog, self.workdir = prog, workdir
        self.cfg = prog.config.RunConfig()
        self.pool = [ANCHOR] + family_strings(np.random.default_rng(seed), self.seeded)
        self._R = {}

    def path(self, name):
        return os.path.join(self.workdir, name)

    def reference(self, family):
        """Boundary samples of R on the default grid, built from the family string."""
        if family not in self._R:
            grid = self.prog.circle.CircleGrid(self.cfg.grid_size)
            self._R[family] = self.prog.families.from_string(family, grid).samples
        return self._R[family]

    def input_of(self, i):
        if self.interleave:
            return ANCHOR if i % 2 == 0 else self.pool[1 + (i // 2) % (len(self.pool) - 1)]
        return self.pool[i % len(self.pool)]

    def is_anchor(self, i):
        return self.input_of(i) == ANCHOR

    def steps(self, i):
        raise NotImplementedError

    def verify(self, i, codes, data):
        """Check one op's outputs; return {"roundtrip_err", "oracle_dev", ...}."""
        raise NotImplementedError

    def oracle_dev(self, results):
        """Worst |alpha - oracle| over levels -4..4 of the anchor's coefficients."""
        alphas = next((r["alphas"] for i, r in results if self.is_anchor(i)), None)
        if alphas is None:
            return None
        J = 4
        grid = self.prog.circle.CircleGrid(self.cfg.grid_size)
        R = self.prog.families.from_string(ANCHOR, grid)
        Q = self.prog.oracle.quadrature_space(R, self.cfg.oversample)
        ref = self.prog.oracle.oracle_verblunsky(R, J, self.cfg.section_start, Q).alphas
        mid = (alphas.size - 1) // 2
        return float(np.max(np.abs(alphas[mid - J: mid + J + 1] - ref)))


class Defaults(Workload):
    name = "defaults"

    def steps(self, i):
        fam = self.input_of(i)
        return [
            (["inverse", "--family", fam, "--out", self.path("alphas.json"),
              "--report", self.path("inverse-report.json")], {0},
             ("alphas.json", "inverse-report.json")),
            (["direct", "--alphas", self.path("alphas.json"),
              "--out", self.path("rec.json")], {0}, ("rec.json",)),
            (["spectrum", "--family", fam, "--out", self.path("density.csv"),
              "--report", self.path("moments.json")], {0},
             ("density.csv", "moments.json")),
        ]

    def verify(self, i, codes, data):
        M, J = self.cfg.grid_size, self.cfg.levels
        alphas = check_alphas(_output(data, "alphas.json"), J)
        _finite_json(_output(data, "inverse-report.json"), "inverse report")
        vals = check_reconstruction(_output(data, "rec.json"), M)
        check_density(_output(data, "density.csv"), M)
        _finite_json(_output(data, "moments.json"), "moments report")
        err = float(np.max(np.abs(vals - self.reference(self.input_of(i)))))
        return {"roundtrip_err": err, "alphas": alphas}


class Deep(Workload):
    name = "deep"
    seeded = 9
    interleave = True
    LEVELS, WINDOW, DEPTH = 64, 512, 128

    def steps(self, i):
        fam = self.input_of(i)
        return [
            (["inverse", "--family", fam, "--levels", str(self.LEVELS),
              "--out", self.path("alphas.json")], {0}, ("alphas.json",)),
            (["direct", "--alphas", self.path("alphas.json"),
              "--window", str(self.WINDOW), "--depth", str(self.DEPTH),
              "--out", self.path("rec.json")], {0}, ("rec.json",)),
        ]

    def verify(self, i, codes, data):
        alphas = check_alphas(_output(data, "alphas.json"), self.LEVELS)
        vals = check_reconstruction(_output(data, "rec.json"), self.cfg.grid_size)
        err = float(np.max(np.abs(vals - self.reference(self.input_of(i)))))
        return {"roundtrip_err": err, "alphas": alphas}


class Certify(Workload):
    name = "certify"
    seeded = 9
    interleave = True

    def steps(self, i):
        return [(["check", "--family", self.input_of(i), "--out", self.path("check.json")],
                 {0, 3}, ("check.json",))]

    def verify(self, i, codes, data):
        checks = check_report(_output(data, "check.json"), codes[-1])
        return {
            "roundtrip_err": float(checks["roundtrip_sup_error"]["value"]),
            "oracle_dev": float(checks["oracle_alpha_agreement"]["value"]),
            "violations": sorted(n for n, c in checks.items() if not c["passed"]),
        }

    def oracle_dev(self, results):
        devs = [r["oracle_dev"] for i, r in results if self.is_anchor(i)]
        return max(devs) if devs else None


WORKLOADS = {w.name: w for w in (Defaults, Deep, Certify)}

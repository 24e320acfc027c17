"""Outside-in tracer for cmvscat.

The tracer wraps every public function of the traced modules and rebinds
the wrapper at every place the function is bound: its own module and
every cmvscat module that imported it by name (`verblunsky`,
`scattering`, `spectral` and `checks` all import `converged_defect_pair`
this way, and `lrspace.converged_defect_pair` calls the module global
`defect_pair`). Nothing in the program changes; `uninstall` restores the
original bindings.

Spans are kept in memory as [name, start, end, parent, op, info] and
written out when the benchmark ends. A span's self time is its duration
minus the durations of its direct child spans.
"""

import functools
import inspect
import json
import sys
import threading
import time
from collections import defaultdict

PACKAGE = "cmvscat"
LAYERS = ("circle", "lrspace", "verblunsky", "cmv", "scattering", "spectral",
          "oracle", "checks", "cli", "fileio")

# Arguments kept with a span: the section key of a defect pair (for the
# distinct-call ratio and the largest section) and the point count of a
# direct evaluation.
_INFO = {
    "lrspace.defect_pair": lambda a: (int(a["n"]), int(a["m"]), int(a["N"])),
    "scattering.direct_scattering": lambda a: len(a["zs"]),
}

CHECK_FUNCTIONS = ("check_gram_structure", "check_verblunsky", "check_rotation",
                   "check_shift_covariance", "check_schur", "check_cmv",
                   "check_roundtrip", "check_asymptotics", "check_spectral",
                   "check_oracle")


class Tracer:
    """Span recorder over the public functions of the traced cmvscat modules."""

    def __init__(self):
        self.spans = []
        self.op = None  # id of the op the next spans belong to
        self._lock = threading.Lock()
        self._local = threading.local()
        self._restore = []

    def install(self):
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for mname, mod in list(sys.modules.items()):
            if mname != PACKAGE and not mname.startswith(PACKAGE + "."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    self._restore.append((mod, attr, obj))
        return self

    def uninstall(self):
        for mod, attr, obj in reversed(self._restore):
            setattr(mod, attr, obj)
        self._restore.clear()

    def wrapped_names(self):
        """Qualified names of the wrapped functions, keyed by their code objects."""
        return {obj.__code__: f"{mod.__name__.rsplit('.', 1)[-1]}.{obj.__name__}"
                for mod, _, obj in self._restore if obj.__module__ == mod.__name__}

    def _wrap(self, name, fn):
        spans, lock, local, tracer = self.spans, self._lock, self._local, self
        pick = _INFO.get(name)
        sig = inspect.signature(fn) if pick else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            info = pick(sig.bind(*args, **kwargs).arguments) if pick else None
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.op, info]
            with lock:
                index = len(spans)
                spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        return traced

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "info"],
                       "spans": self.spans}, fh)


def summarize(spans):
    """Per-name call counts, self and total seconds, plus the span children."""
    child_time = [0.0] * len(spans)
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child_time[s[3]] += s[2] - s[1]
            children[s[3]].append(i)
    stats = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0})
    for i, s in enumerate(spans):
        st = stats[s[0]]
        st["calls"] += 1
        st["self_s"] += s[2] - s[1] - child_time[i]
        st["total_s"] += s[2] - s[1]
    return stats, children, child_time


def layer_metrics(spans, ops):
    """The per-layer metrics of the benchmark, each per op unless named otherwise."""
    stats, children, child_time = summarize(spans)
    ops = max(ops, 1)

    def stat(name, key):
        return stats[name][key] / ops if name in stats else 0.0

    out = {}
    for name, keys in (
        ("circle.szego_check", ("calls", "self_s")),
        ("lrspace.defect_pair", ("calls", "self_s")),
        ("lrspace.gram_matrix", ("self_s",)),
        ("lrspace.frame_gram", ("calls", "self_s")),
        ("lrspace.converged_defect_pair", ("calls", "self_s")),
        ("lrspace.inner_product", ("calls", "self_s")),
        ("verblunsky.inverse_scattering", ("total_s", "self_s")),
        ("verblunsky.recover_omega", ("calls",)),
        ("verblunsky.schur_chain", ("total_s",)),
        ("cmv.build_cmv", ("calls", "self_s")),
        ("cmv.resolvent_solve", ("calls", "self_s")),
        ("cmv.unitarity_defect", ("self_s",)),
        ("scattering.boundary_reconstruction", ("total_s",)),
        ("scattering.direct_scattering", ("self_s",)),
        ("scattering.wandering_vectors", ("self_s",)),
        ("scattering.roundtrip", ("total_s",)),
        ("spectral.spectral_density", ("total_s",)),
        ("spectral.moment_check", ("total_s",)),
        ("spectral.sigma_recursion_check", ("total_s",)),
        ("oracle.oracle_verblunsky", ("calls", "self_s")),
        ("oracle.quadrature_space", ("self_s",)),
        ("checks.run_full_suite", ("self_s",)),
    ):
        for key in keys:
            out[f"{name}.{key}"] = stat(name, key)
    for fn in CHECK_FUNCTIONS:
        out[f"checks.{fn}.total_s"] = stat(f"checks.{fn}", "total_s")
    for key in ("calls", "self_s"):
        out[f"cmv.matvec.{key}"] = stat("cmv.apply", key) + stat("cmv.apply_adjoint", key)

    pairs = [s for s in spans if s[0] == "lrspace.defect_pair"]
    keys_by_op = defaultdict(set)
    for s in pairs:
        keys_by_op[s[4]].add(s[5])
    distinct = sum(len(k) for k in keys_by_op.values())
    out["lrspace.defect_pair.N_max"] = max((s[5][2] for s in pairs), default=0)
    out["lrspace.defect_pair.distinct_frac"] = distinct / len(pairs) if pairs else 0.0

    converged = [i for i, s in enumerate(spans) if s[0] == "lrspace.converged_defect_pair"]
    doublings = [sum(spans[c][0] == "lrspace.defect_pair" for c in children[i]) - 1
                 for i in converged]
    out["lrspace.converged_defect_pair.doublings"] = (
        sum(doublings) / len(doublings) if doublings else 0.0)

    out["scattering.direct_scattering.points"] = sum(
        s[5] for s in spans if s[0] == "scattering.direct_scattering") / ops
    # cli: time in cli code (argparse, formatting) outside every library span
    out["cli.main.self_s"] = sum(
        s[2] - s[1] - child_time[i] for i, s in enumerate(spans)
        if s[0].startswith("cli.")) / ops
    out["fileio.total_s"] = sum(
        s[2] - s[1] for s in spans
        if s[0].startswith("fileio.")
        and (s[3] < 0 or not spans[s[3]][0].startswith("fileio."))) / ops
    return out

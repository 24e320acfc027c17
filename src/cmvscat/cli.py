"""Command-line front end.

Five commands over the library pipeline: inverse, direct, roundtrip,
spectrum, check. The CLI parses inputs, wires configuration and writes
reports; every number it emits comes from a library call.

Exit codes: 0 success, 2 input problem (including a file that cannot
be read or written), 3 numerical failure.
"""

import argparse
import sys

import numpy as np

from . import cmv, fileio, scattering, spectral
from .circle import CircleGrid
from .config import RunConfig
from .errors import INPUT_ERRORS, NUMERICAL_ERRORS, InputError
from .families import from_string
from .lrspace import converged_defect_pair
from .verblunsky import (
    convergence_report, inverse_scattering, split_deviation, union_verblunsky,
)
from .checks import run_full_suite

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERICAL = 3


# CLI flag -> (RunConfig field, help)
_FLAGS = {"grid": ("grid_size", "grid size M (power of two)"),
          "levels": ("levels", "level half-window J")}


def _add_common(p, *flags):
    # each command registers only the RunConfig flags its computation reads,
    # so a flag it would ignore is refused by argparse
    p.add_argument("--config", help="JSON file with RunConfig overrides")
    for flag in flags:
        p.add_argument(f"--{flag}", type=int, help=_FLAGS[flag][1])
    p.add_argument("--out", help="output path ('-' for stdout)")


def _config_from(args):
    cfg = RunConfig.from_file(args.config) if args.config else RunConfig()
    over = {field: getattr(args, flag) for flag, (field, _) in _FLAGS.items()
            if getattr(args, flag, None) is not None}
    return cfg.replace(**over)


def _load_input(args, cfg):
    if getattr(args, "input", None):
        return fileio.load_scattering(args.input, cfg.grid_size)
    if getattr(args, "family", None):
        return from_string(args.family, CircleGrid(cfg.grid_size))
    raise InputError("provide --input FILE or --family SPEC")


def _emit(text, path):
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        fileio.write_text(path, text)


def cmd_inverse(args):
    cfg = _config_from(args)
    R = _load_input(args, cfg)
    seq = inverse_scattering(R, cfg.levels, cfg)
    _emit(fileio.save_alphas(seq), args.out)
    if args.report:
        # split_dev re-solves every level at the shifted split, which
        # doubles the sections; only the report reads it
        seq.diagnostics["split_dev"] = split_deviation(R, seq, cfg)
        report = {"convergence": convergence_report(seq),
                  "diagnostics": seq.diagnostics}
        _emit(fileio.save_report(report), args.report)
    print(
        f"inverse: {len(seq.alphas)} coefficients over [{seq.lo}, {seq.hi}], "
        f"max |alpha| = {np.max(np.abs(seq.alphas)):.6g}",
        file=sys.stderr,
    )
    return EXIT_OK


def _parse_zgrid(args, cfg):
    if args.z is not None:
        try:
            zs = [complex(part) for part in args.z.split(";") if part]
        except ValueError as exc:
            raise InputError(f"--z: {exc}") from exc
        if not zs:
            raise InputError("--z lists no points")
        return np.array(zs)
    if args.ring_radius is None and args.ring_count is None:
        return None  # boundary reconstruction on the full grid
    radius = args.ring_radius if args.ring_radius is not None else 0.9
    count = args.ring_count if args.ring_count is not None else cfg.grid_size
    if count < 1:
        raise InputError(f"--ring-count must be at least 1, got {count}")
    theta = 2.0 * np.pi * np.arange(count) / count
    return radius * np.exp(1j * theta)


def cmd_direct(args):
    cfg = _config_from(args)
    seq = fileio.load_alphas(args.alphas)
    zgrid = _parse_zgrid(args, cfg)
    if zgrid is None:
        grid = CircleGrid(cfg.grid_size)
        values = scattering.boundary_reconstruction(seq, grid, args.window, args.depth)
        zs = grid.nodes
    else:
        values = scattering.direct_scattering(seq, zgrid, args.window, args.depth)
        zs = zgrid
    _emit(fileio.save_reconstruction(zs, values, args.fmt), args.out)
    print(f"direct: evaluated {len(zs)} points, sup |R| = "
          f"{np.max(np.abs(values)):.6g}", file=sys.stderr)
    return EXIT_OK


def cmd_roundtrip(args):
    cfg = _config_from(args)
    R = _load_input(args, cfg)
    rep = scattering.roundtrip(R, scattering.rung_sequences(R, cfg))
    _emit(fileio.save_report(rep), args.out)
    print(f"roundtrip: J = {rep['levels']}, sup error = {rep['sup_error']:.3e}, "
          f"l2 error = {rep['l2_error']:.3e}", file=sys.stderr)
    return EXIT_OK


def cmd_spectrum(args):
    n = args.level
    cfg = _config_from(args)
    R = _load_input(args, cfg)
    # the kmax = 4 moments of the density at n read levels a - 4 .. a + 4,
    # a = 2n - 1, off one union frame; a refusal comes before any output
    a = 2 * n - 1
    seq = union_verblunsky(R, a - 4, a + 4, cfg)
    dens = spectral.spectral_density(R, converged_defect_pair(R, n, n, cfg))
    _emit(fileio.save_density_csv(dens), args.out)
    rep = spectral.moment_check(dens, seq, kmax=4)
    rep["log_det"] = spectral.log_det_diagnostic(dens)
    if args.report:
        _emit(fileio.save_report(rep), args.report)
    print(f"spectrum: level {n}, moment deviation = {rep['max_abs_dev']:.3e}",
          file=sys.stderr)
    return EXIT_OK


def cmd_check(args):
    cfg = _config_from(args)
    R = _load_input(args, cfg)
    results = run_full_suite(R, cfg)
    report = {
        "all_passed": all(r.passed for r in results),
        "checks": [r.as_dict() for r in results],
    }
    _emit(fileio.save_report(report), args.out)
    for r in results:
        mark = "pass" if r.passed else "FAIL"
        print(f"[{mark}] {r.name}: {r.value:.3e} (bound {r.bound:.3e})",
              file=sys.stderr)
    return EXIT_OK if report["all_passed"] else EXIT_NUMERICAL


def cmd_dump_matrix(args):
    seq = fileio.load_alphas(args.alphas)
    W = scattering.minimal_window(seq)[0] if args.window is None else args.window
    U = cmv.build_cmv(seq, W, args.boundary)
    _emit(fileio.save_matrix_csv(cmv.dump_entries(U)), args.out)
    return EXIT_OK


def build_parser():
    ap = argparse.ArgumentParser(
        prog="cmvscat",
        description="Scattering transforms for banded unitary (CMV) operators",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("inverse", help="scattering function -> coefficients")
    p.add_argument("--input", help="scattering function file (JSON or CSV)")
    p.add_argument("--family", help="built-in input family spec")
    p.add_argument("--report", help="write a diagnostics report here")
    _add_common(p, "grid", "levels")
    p.set_defaults(func=cmd_inverse)

    p = sub.add_parser("direct", help="coefficients -> scattering function")
    p.add_argument("--alphas", required=True, help="coefficient file (JSON)")
    p.add_argument("--z", help="explicit points, e.g. '0.5;0.2+0.1j'")
    p.add_argument("--ring-radius", type=float, help="evaluation ring radius")
    p.add_argument("--ring-count", type=int, help="points on the ring")
    p.add_argument("--format", dest="fmt", choices=("json", "csv"), default="json",
                   help="output format (default json)")
    # W and depth default to scattering.minimal_window of the coefficient file
    p.add_argument("--window", type=int, help="basis half-window W (default: minimal)")
    p.add_argument("--depth", type=int, help="wandering-vector depth (default: minimal)")
    _add_common(p, "grid")
    p.set_defaults(func=cmd_direct)

    # J doubles from --levels until R's Fourier tail is below tol_roundtrip
    p = sub.add_parser("roundtrip", help="inverse then direct, with error report")
    p.add_argument("--input", help="scattering function file")
    p.add_argument("--family", help="built-in input family spec")
    _add_common(p, *_FLAGS)
    p.set_defaults(func=cmd_roundtrip)

    p = sub.add_parser("spectrum", help="spectral density at a level")
    p.add_argument("--input", help="scattering function file")
    p.add_argument("--family", help="built-in input family spec")
    p.add_argument("--report", help="write the moments report here")
    # the density level, which may be zero or negative
    p.add_argument("--levels", dest="level", type=int, default=0,
                   help="the density level n (default 0)")
    _add_common(p, "grid")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("check", help="full invariant suite and oracle comparison")
    p.add_argument("--input", help="scattering function file")
    p.add_argument("--family", help="built-in input family spec")
    _add_common(p, *_FLAGS)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("dump-matrix", help="CSV triplets of the banded operator")
    p.add_argument("--alphas", required=True)
    p.add_argument("--boundary", choices=cmv.BOUNDARY_TAGS, default="zero-tail",
                   help="edge policy of the window (default zero-tail)")
    # reads no RunConfig field, so it takes no --config
    p.add_argument("--window", type=int, help="basis half-window W (default: minimal)")
    p.add_argument("--out", help="output path ('-' for stdout)")
    p.set_defaults(func=cmd_dump_matrix)

    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (*INPUT_ERRORS, OSError, MemoryError) as exc:
        # OSError: a file named on the command line cannot be read or
        # written; its message names the path. MemoryError: an input
        # (a grid or a level window) asks for more memory than there is,
        # and numpy's message names the allocation
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NUMERICAL_ERRORS as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())

"""The output writers against a plain csv.writer / json.dumps rendering of the same data."""

import csv
import io
import json

import numpy as np

from cmvscat import CircleGrid, RunConfig, cmv, fileio, scattering, spectral
from cmvscat.families import from_string
from cmvscat.lrspace import converged_defect_pair
from cmvscat.verblunsky import union_verblunsky

ANCHOR = "random,degree=4,margin=0.2,seed=0"  # the README `check` example


def _csv_reference(header, rows):
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(header)
    for row in rows:
        w.writerow([x if isinstance(x, int) else repr(float(x)) for x in row])
    return buf.getvalue()


def _json_reference(obj):
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _pairs(zs):
    return [[float(np.real(z)), float(np.imag(z))] for z in zs]


def _anchor():
    cfg = RunConfig()
    return from_string(ANCHOR, CircleGrid(cfg.grid_size)), cfg


def test_density_csv_matches_csv_writer():
    R, cfg = _anchor()
    dens = spectral.spectral_density(R, converged_defect_pair(R, 0, 0, cfg))
    rows = [[th] + [part for p in range(2) for q in range(2)
                    for part in (m[p, q].real, m[p, q].imag)]
            for th, m in zip(dens.grid.theta, dens.values)]
    header = ["theta", "re11", "im11", "re12", "im12", "re21", "im21", "re22", "im22"]
    assert fileio.save_density_csv(dens) == _csv_reference(header, rows)


def test_matrix_csv_matches_csv_writer():
    R, cfg = _anchor()
    seq = union_verblunsky(R, -cfg.levels, cfg.levels, cfg)
    entries = cmv.dump_entries(cmv.build_cmv(seq, scattering.minimal_window(seq)[0]))
    rows = [[i, j, v.real, v.imag] for i, j, v in entries]
    assert fileio.save_matrix_csv(entries) == _csv_reference(["row", "col", "re", "im"],
                                                             rows)


def test_reconstruction_and_alphas_match_json_and_csv_writer():
    R, cfg = _anchor()
    seq = union_verblunsky(R, -cfg.levels, cfg.levels, cfg)
    zs = R.grid.nodes
    values = scattering.boundary_reconstruction(seq, R.grid)
    assert fileio.save_reconstruction(zs, values, "json") == _json_reference(
        {"z": _pairs(zs), "R": _pairs(values)})
    rows = [[z.real, z.imag, v.real, v.imag] for z, v in zip(zs, values)]
    assert fileio.save_reconstruction(zs, values, "csv") == _csv_reference(
        ["z_re", "z_im", "R_re", "R_im"], rows)
    assert fileio.save_alphas(seq) == _json_reference(
        {"lo": seq.lo, "alphas": _pairs(seq.alphas), "a0s": [float(a) for a in seq.a0s]})

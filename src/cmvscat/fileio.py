"""File formats: scattering-function input, coefficient files, reports.

JSON writing is deterministic (sorted keys, fixed indentation, no
timestamps) so identical inputs give byte-identical outputs.
"""

import csv
import json

import numpy as np

from .circle import CircleGrid, LaurentSeries, ScatteringFunction
from .errors import InputError, ResolutionError
from .verblunsky import VerblunskySequence


def dumps(obj):
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def load_json_object(path):
    """The JSON object in a file; malformed JSON or another value raises InputError."""
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise InputError(f"{path}: expected a JSON object, got {type(data).__name__}")
    return data


def write_text(path, text):
    with open(path, "w") as fh:
        fh.write(text)


def _c2pair(z):
    return [float(np.real(z)), float(np.imag(z))]


def _rows(value, what, width=None):
    """A JSON list of finite numbers as a float array: rows of `width` of them,
    or a flat list when width is None.

    JSON's true and false are no numbers, though numpy reads them as 1 and
    0, and neither is a string that numpy would parse.
    """
    try:
        arr = np.array(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{what}: {exc}") from exc
    shaped = arr.ndim == 2 and arr.shape[1] == width if width else arr.ndim == 1
    if (not shaped or not np.all(np.isfinite(arr))
            or not all(type(x) in (int, float) for x in np.array(value, dtype=object).flat)):
        rows = f"rows of {width} " if width else ""
        raise ValueError(f"{what} must be a list of {rows}finite numbers")
    return arr


def _integer(value, what):
    """A JSON number that is an integer below 2**53 in magnitude, which a
    float holds exactly; a boolean or a string is none."""
    if type(value) in (int, float) and abs(value) < 2**53 and value == int(value):
        return int(value)
    raise ValueError(f"{what} {value!r} is not an integer below 2**53 in magnitude")


def load_scattering(path, grid_size):
    """Read a scattering function from JSON or CSV.

    JSON: {"type": "coeffs", "entries": [[j, re, im], ...]} or
          {"type": "samples", "grid": M, "values": [[re, im], ...]}.
    CSV: columns theta, re, im over a full equispaced grid (optional
    header row). A malformed value raises InputError naming the file.
    """
    if str(path).endswith(".csv"):
        return _load_scattering_csv(path)
    data = load_json_object(path)
    kind = data.get("type")
    if kind not in ("coeffs", "samples"):
        raise InputError(f"{path}: 'type' must be 'coeffs' or 'samples'")
    try:
        if kind == "samples":
            M = _integer(data.get("grid", 0), "'grid'")
            rows = _rows(data.get("values"), "'values'", 2)
        else:
            rows = _rows(data.get("entries"), "'entries'", 3)
            js = [_integer(j, "index") for j in rows[:, 0].tolist()]
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from exc
    values = [complex(re, im) for re, im in rows[:, -2:]]
    if kind == "samples":
        if len(values) != M:
            raise InputError(f"{path}: 'values' must be a list of length 'grid'")
        return ScatteringFunction.from_samples(np.array(values), CircleGrid(M))
    lo, hi = min(js), max(js)
    grid = CircleGrid(grid_size)
    if hi - lo >= grid.size:  # refused before allocating the window
        raise ResolutionError(f"{path}: Laurent window [{lo}, {hi}] does not fit a "
                              f"grid of size {grid.size}; increase M")
    coeffs = np.zeros(hi - lo + 1, dtype=complex)
    for j, v in zip(js, values):
        coeffs[j - lo] += v
    return ScatteringFunction.from_coeffs(LaurentSeries(lo, coeffs), grid)


def _load_scattering_csv(path):
    thetas, vals = [], []
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            try:
                th = float(row[0])
            except (IndexError, ValueError):
                continue  # blank or header row
            if len(row) != 3:
                raise InputError(f"{path}: CSV rows must be theta,re,im")
            try:
                vals.append(complex(float(row[1]), float(row[2])))
            except ValueError as exc:
                raise InputError(f"{path}: {exc}") from exc
            thetas.append(th)
    M = len(vals)
    grid = CircleGrid(M)
    if not np.all(np.abs(np.array(thetas) - grid.theta) <= 1e-9):
        raise InputError(f"{path}: theta column is not the equispaced grid 2*pi*k/{M}")
    return ScatteringFunction.from_samples(np.array(vals), grid)


def load_alphas(path):
    data = load_json_object(path)
    if "lo" not in data or "alphas" not in data:
        raise InputError(f"{path}: coefficient files need 'lo' and 'alphas'")
    try:
        lo = _integer(data["lo"], "'lo'")
        alphas = [complex(re, im) for re, im in _rows(data["alphas"], "'alphas'", 2)]
        a0s = _rows(data["a0s"], "'a0s'") if "a0s" in data else None
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"{path}: {exc}") from exc
    return VerblunskySequence(lo, alphas, a0s)


def _pairs(z):
    """[re, im] lists of a complex array, as JSON writes them."""
    z = np.asarray(z, dtype=complex)
    return np.column_stack([z.real, z.imag]).tolist()


def _csv_text(header, rows):
    """CSV text of a header and rows of numbers, each written by repr, with
    csv.writer's CRLF line ends."""
    lines = [",".join(header)] + [",".join(map(repr, row)) for row in rows]
    return "\r\n".join(lines) + "\r\n"


def save_alphas(seq):
    data = {"lo": int(seq.lo), "alphas": _pairs(seq.alphas)}
    if seq.a0s is not None:
        data["a0s"] = seq.a0s.tolist()
    return dumps(data)


def save_reconstruction(zs, values, fmt="json"):
    if fmt == "json":
        return dumps({"z": _pairs(zs), "R": _pairs(values)})
    z, v = np.asarray(zs, dtype=complex), np.asarray(values, dtype=complex)
    return _csv_text(["z_re", "z_im", "R_re", "R_im"],
                     np.column_stack([z.real, z.imag, v.real, v.imag]).tolist())


def save_density_csv(density):
    # columns re, im of the entries 11, 12, 21, 22 in turn
    vals = density.values.reshape(len(density.values), 4)
    parts = np.stack([vals.real, vals.imag], axis=-1).reshape(len(vals), 8)
    header = ["theta", "re11", "im11", "re12", "im12", "re21", "im21", "re22", "im22"]
    return _csv_text(header, np.column_stack([density.grid.theta, parts]).tolist())


def save_matrix_csv(entries):
    return _csv_text(["row", "col", "re", "im"],
                     [(i, j, v.real, v.imag) for i, j, v in entries])


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, complex):
        return _c2pair(value)
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.ndarray):
        return _jsonable(value.tolist())
    return value


def save_report(report):
    return dumps(_jsonable(report))

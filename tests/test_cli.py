import contextlib
import dataclasses
import io
import json
import os
import re
import shlex
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cmvscat
from cmvscat import fileio
from cmvscat.circle import CircleGrid
from cmvscat.cli import main
from cmvscat.config import TAIL_TOL, TOL_FUN, RunConfig
from cmvscat.errors import InputError
from cmvscat.families import from_string
from cmvscat.verblunsky import VerblunskySequence

# the numeric flags each command registers; spectrum's --levels is its
# density level, not the level window. --window and --depth are no
# RunConfig fields: they default to the smallest pair that fixes every
# moment of the coefficient file, and only direct takes them. dump-matrix
# prints the window at that smallest pair and reads no RunConfig field,
# so it takes no numeric flag and no --config either
ACCEPTS = {"inverse": ("grid", "levels"), "direct": ("grid", "window", "depth"),
           "roundtrip": ("grid", "levels"), "spectrum": ("grid", "levels"),
           "check": ("grid", "levels"), "dump-matrix": ()}
TAKES_CONFIG = set(ACCEPTS) - {"dump-matrix"}


def _scale(command, grid=256, levels=4, window=48, depth=8):
    """The flags `command` registers, at the given values."""
    values = {"grid": grid, "levels": levels, "window": window, "depth": depth}
    return [arg for flag in ACCEPTS[command] for arg in (f"--{flag}", str(values[flag]))]


FAST_FOR = {command: _scale(command) for command in ACCEPTS}
FAST = FAST_FOR["inverse"]  # most tests here run inverse


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def _padded(alpha0):
    # alpha_0 on the window [-2, 2], zeros around it: direct needs lo < 0
    rows = [[0.0, 0.0]] * 2 + [[alpha0, 0.0]] + [[0.0, 0.0]] * 2
    return json.dumps({"lo": -2, "alphas": rows})


def test_load_scattering_coeffs(tmp_path):
    path = _write(
        tmp_path, "r.json", json.dumps({"type": "coeffs", "entries": [[-1, 0.5, 0.0]]})
    )
    R = fileio.load_scattering(path, 256)
    assert abs(R.coefficient(-1) - 0.5) < 1e-15
    assert R.exact_coeffs


def test_load_scattering_samples(tmp_path):
    grid = CircleGrid(64)
    vals = (0.25 * np.conj(grid.nodes)).tolist()
    data = {"type": "samples", "grid": 64,
            "values": [[v.real, v.imag] for v in vals]}
    path = _write(tmp_path, "r.json", json.dumps(data))
    R = fileio.load_scattering(path, 256)
    assert R.grid.size == 64
    assert abs(R.coefficient(-1) - 0.25) < 1e-12


def test_load_scattering_csv(tmp_path):
    grid = CircleGrid(64)
    lines = ["theta,re,im"]
    for th, v in zip(grid.theta, 0.5 * np.conj(grid.nodes)):
        lines.append(f"{float(th)!r},{float(v.real)!r},{float(v.imag)!r}")
    path = _write(tmp_path, "r.csv", "\n".join(lines) + "\n")
    R = fileio.load_scattering(path, 256)
    assert abs(R.coefficient(-1) - 0.5) < 1e-12


def test_load_scattering_bad_json(tmp_path):
    path = _write(tmp_path, "r.json", "{not json")
    with pytest.raises(InputError):
        fileio.load_scattering(path, 256)


def test_alphas_roundtrip(tmp_path):
    seq = VerblunskySequence(-2, np.array([0.1, 0.2j, -0.3, 0.0, 0.25]),
                             np.linspace(0.8, 1.0, 6))
    path = _write(tmp_path, "a.json", fileio.save_alphas(seq))
    back = fileio.load_alphas(path)
    assert back.lo == -2
    assert np.max(np.abs(back.alphas - seq.alphas)) < 1e-15
    assert np.max(np.abs(back.a0s - seq.a0s)) < 1e-15


def test_cli_inverse_monomial(tmp_path):
    inp = _write(
        tmp_path, "r.json", json.dumps({"type": "coeffs", "entries": [[-1, 0.5, 0.0]]})
    )
    out = str(tmp_path / "alphas.json")
    code = main(["inverse", "--input", inp, "--out", out] + FAST)
    assert code == 0
    seq = fileio.load_alphas(out)
    assert abs(seq.alpha(0) + 0.5) < 1e-10
    assert abs(seq.alpha(1)) < 1e-10


def test_cli_inverse_zero_family(tmp_path):
    out = str(tmp_path / "alphas.json")
    code = main(["inverse", "--family", "zero", "--out", out] + FAST)
    assert code == 0
    seq = fileio.load_alphas(out)
    assert np.max(np.abs(seq.alphas)) < 1e-14


@pytest.mark.parametrize("command", ["inverse", "roundtrip", "spectrum"])
def test_cli_inverse_rejects_unimodular_sample(tmp_path, capsys, command):
    grid = CircleGrid(64)
    vals = np.full(64, 0.5 + 0j)
    vals[3] = 1.0
    data = {"type": "samples", "grid": 64,
            "values": [[v.real, v.imag] for v in vals]}
    inp = _write(tmp_path, "r.json", json.dumps(data))
    code = main([command, "--input", inp, "--out", str(tmp_path / "a.json")]
                + FAST_FOR[command])
    assert code == 2
    err = capsys.readouterr().err
    assert "Szego condition fails" in err
    assert "Traceback" not in err


def test_cli_spectrum_rejects_margin_below_floor(tmp_path, capsys):
    # sup |R| = 0.9995 passes Szego, but its margin is below margin_min = 1e-3
    code = main(["spectrum", "--family", "monomial,gamma=0.9995,k=1",
                 "--grid", "256", "--out", str(tmp_path / "d.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert "below margin_min" in err
    assert "Traceback" not in err


_SINGULAR = ["1 - sup |R|^2 = 1.992e-13 < 1e-12", "numerically singular",
             "section condition bound 1 / (1 - sup |R|^2) exceeds 1e12"]


@pytest.mark.parametrize("level, messages", [
    pytest.param("0", _SINGULAR, id="cond_cap"),
    pytest.param("100", _SINGULAR, id="weight"),
])
def test_cli_spectrum_conditioning_error_exits_3(tmp_path, capsys, level, messages):
    # margin_min 1e-15 lets sup |R| = 1 - 1e-13 past the margin floor, and
    # the Szego guard's conditioning floor refuses it a priori at every
    # level: at level 0, whose section would be near singular, and at level
    # 100, whose section decouples but whose 2x2 weight is near singular
    cfg_path = _write(tmp_path, "cfg.json", json.dumps({"margin_min": 1e-15}))
    out = tmp_path / "d.csv"
    code = main(["spectrum", "--config", cfg_path, "--family",
                 "monomial,gamma=0.9999999999999,k=1", "--levels", level,
                 "--out", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    for message in messages:
        assert message in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--grid", "--levels", "--window", "--depth"])
def test_cli_rejects_zero_override(tmp_path, capsys, flag):
    # roundtrip registers --grid and --levels, RunConfig fields; direct
    # registers --window and --depth, which its moment sweep checks
    if flag[2:] in ACCEPTS["roundtrip"]:
        command = ["roundtrip", "--family", "monomial,gamma=0.5,k=1"]
        expect = "must be positive"
    else:
        command = ["direct", "--alphas", _write(tmp_path, "al.json", _padded(0.1))]
        expect = "the minimum with depth >= "
    args = command + ["--out", str(tmp_path / "a.json")] + FAST_FOR[command[0]]
    args[args.index(flag) + 1] = "0"
    code = main(args)
    assert code == 2
    err = capsys.readouterr().err
    assert expect in err
    assert "Traceback" not in err
    assert not (tmp_path / "a.json").exists()


def test_cli_spectrum_level_zero_is_a_level(tmp_path):
    # for spectrum --levels names the density level, so 0 is a valid value
    out = str(tmp_path / "d.csv")
    rep = str(tmp_path / "m.json")
    code = main(["spectrum", "--family", "monomial,gamma=0.5,k=1", "--levels", "0",
                 "--grid", "256", "--out", out, "--report", rep])
    assert code == 0
    assert json.loads(open(rep).read())["max_abs_dev"] <= 1e-6


def test_cli_direct_zero_alphas(tmp_path):
    alphas = _write(tmp_path, "a.json", _padded(0.0))
    out = str(tmp_path / "rec.json")
    code = main(["direct", "--alphas", alphas, "--out", out] + FAST_FOR["direct"])
    assert code == 0
    data = json.loads(open(out).read())
    sup = max(abs(complex(re, im)) for re, im in data["R"])
    assert sup < 1e-12


def test_cli_direct_roundtrip_monomial(tmp_path):
    inp = _write(
        tmp_path, "r.json", json.dumps({"type": "coeffs", "entries": [[-1, 0.5, 0.0]]})
    )
    alphas = str(tmp_path / "a.json")
    assert main(["inverse", "--input", inp, "--out", alphas] + FAST) == 0
    out = str(tmp_path / "rec.json")
    assert main(["direct", "--alphas", alphas, "--out", out] + FAST_FOR["direct"]) == 0
    data = json.loads(open(out).read())
    grid = CircleGrid(256)
    rec = np.array([complex(re, im) for re, im in data["R"]])
    assert np.max(np.abs(rec - 0.5 * np.conj(grid.nodes))) < 1e-3


def test_cli_direct_rejects_large_alpha(tmp_path):
    alphas = _write(
        tmp_path, "a.json", json.dumps({"lo": 0, "alphas": [[1.0, 0.0]]})
    )
    code = main(["direct", "--alphas", alphas, "--out", str(tmp_path / "o.json")]
                + FAST_FOR["direct"])
    assert code == 2


def test_cli_direct_rejects_nonfinite_alpha(tmp_path, capsys):
    alphas = _write(tmp_path, "a.json", '{"lo": 0, "alphas": [[0.1, 0.0], [NaN, 0.0]]}')
    code = main(["direct", "--alphas", alphas, "--out", str(tmp_path / "o.json")]
                + FAST_FOR["direct"])
    assert code == 2
    assert "Traceback" not in capsys.readouterr().err


def test_cli_direct_csv_format(tmp_path):
    # one header row, then one row per grid point (M = 256 here)
    alphas = _write(tmp_path, "a.json", _padded(-0.5))
    out = str(tmp_path / "rec.csv")
    assert main(["direct", "--alphas", alphas, "--format", "csv", "--out", out]
                + FAST_FOR["direct"]) == 0
    rows = open(out).read().splitlines()
    assert rows[0] == "z_re,z_im,R_re,R_im"
    assert len(rows) == 1 + 256
    assert all(len(row.split(",")) == 4 for row in rows[1:])


@pytest.mark.parametrize("command", [["inverse", "--family", "zero"],
                                     ["dump-matrix", "--alphas", "a.json"]])
def test_cli_format_only_on_direct(tmp_path, capsys, command):
    # only direct writes two formats; elsewhere the flag is refused, not ignored
    with pytest.raises(SystemExit) as exc:
        main(command + ["--format", "csv", "--out", str(tmp_path / "o")]
             + FAST_FOR[command[0]])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--format" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


_GUARD_FAMILY = "random,degree=4,margin=0.3,seed=5"
_GUARD_INPUT = {"inverse": ["--family", _GUARD_FAMILY],
                "roundtrip": ["--family", _GUARD_FAMILY],
                "spectrum": ["--family", _GUARD_FAMILY],
                "check": ["--family", _GUARD_FAMILY],
                "direct": ["--alphas", "a.json"], "dump-matrix": ["--alphas", "a.json"]}
# a value per registered flag that moves the result off the default run.
# direct's window and depth enter only through the moment horizon K, whose
# moments are exact at every pair that keeps all of them, so the evidence
# that direct reads them is its refusal below the minimum (79, 2) of the
# window [-80, 2] of a.json: --window 70 or --depth 1 exits 2
_GUARD_VALUES = {("inverse", "grid"): 512, ("inverse", "levels"): 3,
                 ("direct", "grid"): 512, ("direct", "window"): 70,
                 ("direct", "depth"): 1,
                 ("roundtrip", "grid"): 512, ("roundtrip", "levels"): 3,
                 ("spectrum", "grid"): 512, ("spectrum", "levels"): 1,
                 ("check", "grid"): 512, ("check", "levels"): 3}
# check runs one suite at fixed bounds, so it has no --light either
_DROPPED = [(command, flag) for command in ACCEPTS
            for flag in ("grid", "levels", "window", "depth")
            if flag not in ACCEPTS[command]] + [("dump-matrix", "config"),
                                                 ("check", "light")]


@pytest.fixture(scope="module")
def guard_runs(tmp_path_factory):
    """(exit code, output bytes or None) of a command and flags, run once each."""
    path = tmp_path_factory.mktemp("guard")
    seq = VerblunskySequence(-80, 0.1 * np.cos(np.arange(83)) + 0.05j)
    alphas = _write(path, "a.json", fileio.save_alphas(seq))
    out, seen = path / "o", {}

    def run(command, flags):
        key = (command, *flags)
        if key not in seen:
            inputs = [alphas if arg == "a.json" else arg for arg in _GUARD_INPUT[command]]
            with contextlib.redirect_stderr(io.StringIO()):
                code = main([command, *inputs, *flags, "--out", str(out)])
            seen[key] = code, out.read_bytes() if out.exists() else None
            out.unlink(missing_ok=True)
        return seen[key]

    return run


@pytest.mark.parametrize("command, flag", list(_GUARD_VALUES))
def test_cli_registered_flag_reaches_output(guard_runs, command, flag):
    # a flag a command registers is one its computation reads: setting it
    # moves the exit code or the output bytes off the default run at grid 256
    grid = ["--grid", "256"] if "grid" in ACCEPTS[command] else []
    set_flag = [f"--{flag}", str(_GUARD_VALUES[command, flag])]
    default = guard_runs(command, grid)
    assert default[0] == 0 and default[1]
    assert guard_runs(command, set_flag if flag == "grid" else grid + set_flag) != default


@pytest.mark.parametrize("command, flag", _DROPPED)
def test_cli_unread_flag_exits_2(tmp_path, capsys, command, flag):
    # a flag the command's computation would ignore is not registered
    argv = [command] + _GUARD_INPUT[command] + [f"--{flag}", "3",
                                                "--out", str(tmp_path / "o")]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"unrecognized arguments: --{flag} 3" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_cli_direct_explicit_points(tmp_path):
    alphas = _write(tmp_path, "a.json", _padded(-0.5))
    out = str(tmp_path / "rec.json")
    code = main(["direct", "--alphas", alphas, "--z", "0.5;0.25j", "--out", out]
                + FAST_FOR["direct"])
    assert code == 0
    data = json.loads(open(out).read())
    val = complex(*data["R"][0])
    assert abs(val - 0.25) < 1e-6


@pytest.mark.parametrize("points", [
    pytest.param(["--z", "nan"], id="nan"),
    pytest.param(["--z", "0.5;abc"], id="0.5;abc"),
    pytest.param(["--z", ";"], id=";"),
    pytest.param(["--ring-count", "0"], id="ring-count=0"),
    pytest.param(["--ring-count", "-3"], id="ring-count=-3"),
    pytest.param(["--z", "0.5", "--ring-radius", "0.3"], id="z-with-ring-radius"),
    pytest.param(["--z", "0.5", "--ring-count", "8"], id="z-with-ring-count"),
])
def test_cli_direct_rejects_bad_points(tmp_path, capsys, points):
    alphas = _write(tmp_path, "a.json", _padded(-0.5))
    code = main(["direct", "--alphas", alphas, *points,
                 "--out", str(tmp_path / "o.json")] + FAST_FOR["direct"])
    assert code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    flags = [arg for arg in points if arg.startswith("--")]
    if len(flags) > 1:  # explicit points and a ring: the message names both flags
        assert all(flag in err for flag in flags), err


@pytest.mark.parametrize("rows", ["[[0.1]]", "[0.1]", '[["a", "b"]]'])
def test_cli_direct_rejects_malformed_alphas(tmp_path, capsys, rows):
    alphas = _write(tmp_path, "a.json", '{"lo": 0, "alphas": %s}' % rows)
    code = main(["direct", "--alphas", alphas, "--out", str(tmp_path / "o.json")]
                + FAST_FOR["direct"])
    assert code == 2
    assert "Traceback" not in capsys.readouterr().err


def test_cli_roundtrip_report(tmp_path):
    out = str(tmp_path / "report.json")
    code = main(
        ["roundtrip", "--family", "monomial,gamma=0.5,k=1",
         "--out", out] + FAST_FOR["roundtrip"]
    )
    assert code == 0
    rep = json.loads(open(out).read())
    assert rep["sup_error"] <= 1e-3
    assert rep["levels"] == 4
    assert rep["rungs"] == [{"levels": 4, "fourier_tail": 0.0, "sup_error": rep["sup_error"],
                             "l2_error": rep["l2_error"]}]


@pytest.mark.parametrize("key, value", [("out", "x.json"), ("fmt", "csv"),
                                        ("check_splits", False),
                                        ("boundary", "decoupled"),
                                        ("cmv_window", 128), ("depth", 32),
                                        ("tol_alg", 1.0), ("tol_fun", 1.0),
                                        ("tail_tol", 1.0)])
def test_cli_config_rejects_output_keys(tmp_path, capsys, key, value):
    # where output goes and its format are flags, no field can switch a
    # certificate off (the bounds of check are fixed), the matrix window and
    # wandering depth follow from the coefficient window, and the window has
    # one edge policy
    cfg_path = _write(tmp_path, "cfg.json", json.dumps({key: value}))
    code = main(["inverse", "--family", "zero", "--config", cfg_path,
                 "--out", str(tmp_path / "a.json")] + FAST)
    assert code == 2
    err = capsys.readouterr().err
    assert "unknown config keys" in err
    assert "Traceback" not in err


_BAD_FILES = [
    ("missing config", None, "cfg.json"),
    ("invalid JSON", "{", "cfg.json"),
    ("not an object", "[1]", "cfg.json"),
    ("string for int", '{"levels": "x"}', "levels"),
    ("float for int", '{"levels": 4.5}', "levels"),
    ("bool for int", '{"levels": true}', "levels"),
    ("string for float", '{"section_tol": "1e-9"}', "section_tol"),
    ("NaN tolerance", '{"section_tol": NaN}', "section_tol"),
    ("infinite tolerance", '{"section_tol": Infinity}', "section_tol"),
    ("oversample not a power of two", '{"oversample": 3}', "oversample"),
    ("missing input", "", "nope.json"),
    ("input not an object", "", "list.json"),
    ("missing alphas", "", "nope.json"),
    ("out into missing dir", "", "nodir"),
    ("report into missing dir", "", "nodir"),
]


@pytest.mark.parametrize("case, config, names", _BAD_FILES,
                         ids=[c[0].replace(" ", "-") for c in _BAD_FILES])
def test_cli_bad_file_or_config_exits_2(tmp_path, capsys, case, config, names):
    # files the command line names and config values keep the CLI contract:
    # exit 2 with a message naming the file or key, never a traceback
    cfg_path = str(tmp_path / "cfg.json")
    if config:
        _write(tmp_path, "cfg.json", config)
    nope, nodir = str(tmp_path / "nope.json"), str(tmp_path / "nodir" / "x.json")
    out = str(tmp_path / "a.json")
    argv = {
        "missing input": ["inverse", "--input", nope, "--out", out],
        "input not an object": ["inverse", "--out", out, "--input",
                                _write(tmp_path, "list.json", "[1]")],
        "missing alphas": ["direct", "--alphas", nope, "--out", out],
        "out into missing dir": ["inverse", "--family", "zero", "--out", nodir],
        "report into missing dir": ["inverse", "--family", "zero", "--out", out,
                                    "--report", nodir],
    }.get(case, ["inverse", "--family", "zero", "--config", cfg_path, "--out", out])
    assert main(argv + FAST_FOR[argv[0]]) == 2
    err = capsys.readouterr().err
    assert names in err
    assert "Traceback" not in err


_SAMPLES_SHORT_ROW = json.dumps({"type": "samples", "grid": 8,
                                 "values": [[1]] + [[0, 0]] * 7})
_BAD_VALUES = [
    # (case, what the text is, the text, name expected in stderr)
    ("family k", "family", "monomial,k=abc", "k="),
    ("family gamma", "family", "monomial,gamma=zz", "gamma="),
    ("family zeros", "family", "blaschke,zeros=q", "zeros="),
    ("family seed", "family", "random,degree=3,seed=-1", "seed"),
    ("family k too large", "family", "monomial,k=100000000000000000000000", "k "),
    ("coefficient not a number", "r.json",
     '{"type": "coeffs", "entries": [[0, "a", 0]]}', "r.json"),
    ("row not a list", "r.json", '{"type": "coeffs", "entries": [1]}', "r.json"),
    ("index not representable", "r.json",
     '{"type": "coeffs", "entries": [[1e300, 0.1, 0]]}', "r.json"),
    ("samples row length", "r.json", _SAMPLES_SHORT_ROW, "r.json"),
    ("grid not an integer", "r.json",
     '{"type": "samples", "grid": "x", "values": [[0, 0]]}', "r.json"),
    ("csv not a number", "r.csv", "theta,re,im\n0,0.1,x\n", "r.csv"),
    ("lo not an integer", "a.json", '{"lo": "x", "alphas": [[0, 0]]}', "a.json"),
    ("a0s not numbers", "a.json",
     '{"lo": -1, "alphas": [[0, 0], [0.1, 0]], "a0s": ["q"]}', "a.json"),
    # JSON booleans are no numbers, though numpy reads them as 1 and 0
    ("boolean index", "r.json",
     '{"type": "coeffs", "entries": [[true, 0.5, 0.0]]}', "r.json"),
    ("boolean coefficient", "r.json",
     '{"type": "coeffs", "entries": [[-1, true, 0.0]]}', "r.json"),
    ("boolean grid", "r.json",
     '{"type": "samples", "grid": true, "values": [[0, 0]]}', "r.json"),
    ("boolean lo", "a.json", '{"lo": true, "alphas": [[0, 0]]}', "a.json"),
    ("boolean alpha", "a.json", '{"lo": -1, "alphas": [[0, 0], [false, 0]]}', "a.json"),
    ("a0s NaN", "a.json",
     '{"lo": -1, "alphas": [[0, 0], [0.1, 0]], "a0s": [NaN, 1, 1]}', "a.json"),
    ("a0s boolean", "a.json",
     '{"lo": -1, "alphas": [[0, 0], [0.1, 0]], "a0s": [true, 1, 1]}', "a.json"),
    ("a0s not a list", "a.json",
     '{"lo": -1, "alphas": [[0, 0], [0.1, 0]], "a0s": 0.5}', "a.json"),
    # nor are strings that numpy would parse as numbers
    ("numeric string coefficient", "r.json",
     '{"type": "coeffs", "entries": [[-1, "0.5", 0]]}', "r.json"),
    ("numeric string grid", "r.json",
     '{"type": "samples", "grid": "8", "values": [[0, 0]]}', "r.json"),
]


@pytest.mark.parametrize("case, kind, text, name", _BAD_VALUES,
                         ids=[c[0].replace(" ", "-") for c in _BAD_VALUES])
def test_cli_bad_value_exits_2(tmp_path, capsys, case, kind, text, name):
    # a value that does not parse is an input problem: exit 2 naming the
    # family parameter or the file, never a traceback
    out = str(tmp_path / "o.json")
    if kind == "family":
        argv = ["inverse", f"--family={text}", "--out", out]
    elif kind == "a.json":
        argv = ["direct", "--alphas", _write(tmp_path, kind, text), "--out", out]
    else:
        argv = ["inverse", "--input", _write(tmp_path, kind, text), "--out", out]
    assert main(argv + FAST_FOR[argv[0]]) == 2
    err = capsys.readouterr().err
    assert name in err
    assert "Traceback" not in err


def test_cli_random_degree_wider_than_grid_exits_3(tmp_path, capsys):
    # refused before drawing 2 * degree + 1 numbers, as synthesize would refuse it
    code = main(["inverse", "--family=random,degree=1099511627776",
                 "--out", str(tmp_path / "o.json")] + FAST)
    assert code == 3
    err = capsys.readouterr().err
    assert "does not fit a grid of size 256" in err
    assert "Traceback" not in err


# capped and derandomized, so every run tries the same inputs
_FUZZ = settings(derandomize=True, max_examples=40, deadline=None, database=None)
_JSON_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(),
                          st.floats(), st.text(max_size=3))
_NUMBERS = st.one_of(st.integers(-3, 3), st.floats(-1, 1), _JSON_SCALARS)
_JSON_ROWS = st.one_of(
    _JSON_SCALARS,
    st.lists(st.lists(_NUMBERS, min_size=2, max_size=3), max_size=8),  # near-valid
    st.lists(st.one_of(_JSON_SCALARS, st.lists(_JSON_SCALARS, max_size=4)), max_size=8),
)
_FAMILY_VALUES = st.one_of(st.integers(-5, 40).map(str), st.floats().map(repr),
                           st.text("0123456789.-+ejnaifx;", max_size=6))
_FAMILY_SPECS = st.builds(
    lambda name, params: ",".join([name] + [f"{k}={v}" for k, v in params]),
    st.sampled_from(["zero", "monomial", "blaschke", "random", "bogus"]),
    st.lists(st.tuples(st.sampled_from(["k", "degree", "seed", "r", "margin",
                                        "gamma", "zeros", "grid", "x"]),
                       _FAMILY_VALUES), max_size=3),
)
_INPUT_OBJECTS = st.fixed_dictionaries(
    {"type": st.sampled_from(["coeffs", "samples", "x"])},
    optional={"entries": _JSON_ROWS, "grid": st.one_of(st.just(8), _JSON_SCALARS),
              "values": _JSON_ROWS},
)
_ALPHA_OBJECTS = st.one_of(
    st.fixed_dictionaries({  # valid files, which reach the CMV build
        "lo": st.integers(-4, -1),
        "alphas": st.lists(st.lists(st.floats(-0.6, 0.6), min_size=2, max_size=2),
                           min_size=1, max_size=8)}),
    st.fixed_dictionaries(
        {"lo": st.one_of(st.integers(-4, 0), _JSON_SCALARS), "alphas": _JSON_ROWS},
        optional={"a0s": st.one_of(st.lists(_NUMBERS, max_size=8), _JSON_ROWS)},
    ),
)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    # small sections, so an input that happens to be valid solves quickly
    path = tmp_path_factory.mktemp("fuzz")
    _write(path, "cfg.json", json.dumps({"section_start": 8, "section_cap": 64}))
    return path


def _contract_exit(fuzz_dir, argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        config = ["--config", str(fuzz_dir / "cfg.json")] if argv[0] in TAKES_CONFIG else []
        code = main(argv + ["--out", str(fuzz_dir / "o.json"), *config]
                    + _scale(argv[0], grid=64, levels=2, window=16, depth=4))
    assert code in (0, 2, 3)
    assert "Traceback" not in err.getvalue()


@_FUZZ
@given(spec=_FAMILY_SPECS)
def test_cli_fuzz_family_strings(fuzz_dir, spec):
    _contract_exit(fuzz_dir, ["inverse", f"--family={spec}"])


@_FUZZ
@given(obj=_INPUT_OBJECTS)
def test_cli_fuzz_input_files(fuzz_dir, obj):
    path = _write(fuzz_dir, "r.json", json.dumps(obj))
    _contract_exit(fuzz_dir, ["inverse", "--input", path])


def test_cli_fuzz_alphas_files(fuzz_dir, monkeypatch):
    # build_cmv takes the coefficients as read: both commands must reach it
    reached, running = [], []
    original = cmvscat.cmv.build_cmv
    monkeypatch.setattr(cmvscat.cmv, "build_cmv",
                        lambda seq, W: reached.append(running[-1]) or original(seq, W))

    @_FUZZ
    @given(obj=_ALPHA_OBJECTS, command=st.sampled_from(["direct", "dump-matrix"]))
    def fuzz(obj, command):
        running.append(command)
        path = _write(fuzz_dir, "a.json", json.dumps(obj))
        _contract_exit(fuzz_dir, [command, "--alphas", path])

    fuzz()
    assert {"direct", "dump-matrix"} <= set(reached)


def test_cli_spectrum_csv(tmp_path):
    out = str(tmp_path / "density.csv")
    rep = str(tmp_path / "moments.json")
    code = main(
        ["spectrum", "--family", "monomial,gamma=0.5,k=1", "--out", out,
         "--report", rep, "--levels", "1", "--grid", "256"]
    )
    assert code == 0
    header = open(out).readline().strip().split(",")
    assert header == ["theta", "re11", "im11", "re12", "im12",
                      "re21", "im21", "re22", "im22"]
    moments = json.loads(open(rep).read())
    assert moments["max_abs_dev"] <= 1e-6


def test_cli_spectrum_solves_each_section_once(tmp_path, monkeypatch):
    # the density solves its own level's section (level 2 at N = 32 and 64);
    # the moments read levels -3..5 off the union frames of one doubling and
    # solve no section of their own
    from cmvscat import lrspace, verblunsky

    solved, unions = [], []
    original = lrspace.defect_pair
    original_union = verblunsky.union_factor

    def counting(R, n, m, N):
        solved.append((n + m, N))
        return original(R, n, m, N)

    def counting_union(R, lo, hi, N):
        unions.append((lo, hi, N))
        return original_union(R, lo, hi, N)

    monkeypatch.setattr(lrspace, "defect_pair", counting)
    monkeypatch.setattr(verblunsky, "union_factor", counting_union)
    code = main(["spectrum", "--family", "monomial,gamma=0.5,k=1", "--levels", "1",
                 "--out", str(tmp_path / "d.csv"), "--report", str(tmp_path / "m.json")])
    assert code == 0
    assert solved == [(2, 32), (2, 64)]
    assert unions == [(-3, 5, 32), (-3, 5, 64)]


def test_cli_spectrum_past_the_level_window(tmp_path):
    # level 40 reads the moments off levels 75..83, a union window with lo > 0
    rep = tmp_path / "m.json"
    code = main(["spectrum", "--family", "random,degree=4,margin=0.2,seed=0",
                 "--levels", "40", "--out", str(tmp_path / "d.csv"), "--report", str(rep)])
    assert code == 0
    assert json.loads(rep.read_text())["max_abs_dev"] <= TOL_FUN


def _noisy_anchor(tmp_path):
    """The `check` example's samples rounded to 8 decimals, as a samples file."""
    R = from_string("random,degree=4,margin=0.2,seed=0", CircleGrid(1024))
    values = np.round(np.column_stack([R.samples.real, R.samples.imag]), 8).tolist()
    return _write(tmp_path, "noisy.json",
                  json.dumps({"type": "samples", "grid": 1024, "values": values}))


def test_cli_spectrum_refuses_noisy_samples(tmp_path, capsys):
    # the anchor's samples rounded to 8 decimals carry a noise floor across
    # the whole Fourier window: its lower reach is d = 505, so the union frame
    # of levels -5..3 would start at N0 = 510 and cannot double within
    # section_cap 512, as for roundtrip and check; nothing is written
    path = _noisy_anchor(tmp_path)
    out = tmp_path / "d.csv"
    code = main(["spectrum", "--input", path, "--out", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert ("level -5: union frame over [-5, 3] needs section size 1020 > section_cap "
            "512: R's lower Fourier reach d = 505") in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["inverse", "spectrum", "roundtrip", "check"])
def test_cli_noisy_samples_name_the_section_tolerance(tmp_path, capsys, command):
    # finite-precision samples: their rounding noise reaches the lower reach
    # d = 505 at the default section_tol 1e-9, so every command that sizes a
    # section refuses with exit 3 and names the setting that trades accuracy
    # for a shorter reach; at section_tol 1e-7 the reach is d = 4 and inverse
    # and roundtrip run, the roundtrip to the samples' rounding
    path = _noisy_anchor(tmp_path)
    out = tmp_path / "o"
    code = main([command, "--input", path, "--out", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert "R's lower Fourier reach d = 505 (tail >= 1.0e-09)" in err
    assert ("R is sampled, so the samples' rounding noise counts toward d: a larger "
            "section_tol shortens it at the cost of accuracy") in err
    assert "Traceback" not in err
    assert not out.exists()
    if command not in ("inverse", "roundtrip"):
        return
    cfg_path = _write(tmp_path, "cfg.json", json.dumps({"section_tol": 1e-7}))
    assert main([command, "--input", path, "--config", cfg_path, "--out", str(out)]) == 0
    if command == "roundtrip":
        assert json.loads(out.read_text())["sup_error"] <= 1e-8


def test_cli_check_passes(tmp_path):
    out = str(tmp_path / "check.json")
    code = main(
        ["check", "--family", "monomial,gamma=0.5,k=1", "--out", out]
        + FAST_FOR["check"]
    )
    assert code == 0
    rep = json.loads(open(out).read())
    assert rep["all_passed"]


def test_cli_dump_matrix(tmp_path):
    # the window of alpha_0 alone is minimal_window's W = 4: indices -4..4
    alphas = _write(
        tmp_path, "a.json", json.dumps({"lo": 0, "alphas": [[-0.5, 0.0]]})
    )
    out = str(tmp_path / "matrix.csv")
    code = main(["dump-matrix", "--alphas", alphas, "--out", out])
    assert code == 0
    rows = open(out).read().strip().splitlines()
    assert rows[0] == "row,col,re,im"
    indices = {int(i) for row in rows[1:] for i in row.split(",")[:2]}
    assert indices == set(range(-4, 5))


def test_cli_deterministic_output(tmp_path):
    a = str(tmp_path / "a1.json")
    b = str(tmp_path / "a2.json")
    for out in (a, b):
        assert main(
            ["inverse", "--family", "random,degree=4,margin=0.3,seed=5",
             "--out", out] + FAST
        ) == 0
    assert open(a).read() == open(b).read()


def test_cli_direct_ring_spec(tmp_path):
    alphas = _write(tmp_path, "a.json", _padded(-0.5))
    out = str(tmp_path / "ring.json")
    code = main(["direct", "--alphas", alphas, "--ring-radius", "0.5",
                 "--ring-count", "16", "--out", out] + FAST_FOR["direct"])
    assert code == 0
    data = json.loads(open(out).read())
    assert len(data["z"]) == 16
    # harmonic extension of 0.5 tbar on the ring of radius 0.5
    for (zr, zi), (rr, ri) in zip(data["z"], data["R"]):
        assert abs(complex(rr, ri) - 0.5 * np.conj(complex(zr, zi))) < 1e-8


def test_cli_numerical_failure_exit_code(tmp_path):
    # a convergence certificate that cannot be met maps to exit 3; the
    # Blaschke input has an infinite coefficient tail, so tiny sections
    # at an impossible tolerance must refuse
    cfg = RunConfig(grid_size=256, levels=2, section_start=8, section_cap=16,
                    section_tol=1e-30)
    cfg_path = _write(tmp_path, "cfg.json", json.dumps(cfg.to_dict()))
    code = main(["inverse", "--family", "blaschke,r=0.8",
                 "--config", cfg_path, "--out", str(tmp_path / "a.json")])
    assert code == 3


def test_family_spec_parsing():
    g = CircleGrid(64)
    R = from_string("monomial,gamma=0.8j,k=2", g)
    assert abs(R.coefficient(-2) - 0.8j) < 1e-15
    with pytest.raises(InputError):
        from_string("nosuch", g)
    with pytest.raises(InputError):
        from_string("monomial,bad=1", g)


def test_every_config_field_is_read():
    # a RunConfig field that no module reads is a knob that does nothing:
    # each must be read as an attribute somewhere in the package outside config.py
    import ast
    import pathlib

    package = pathlib.Path(cmvscat.__file__).parent
    read = {node.attr for path in package.glob("*.py") if path.name != "config.py"
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    fields = [f.name for f in dataclasses.fields(RunConfig)]
    assert len(fields) == 8
    assert [name for name in fields if name not in read] == []


def test_config_file_roundtrip(tmp_path):
    cfg = RunConfig(levels=4, grid_size=128)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg.to_dict()))
    back = RunConfig.from_file(str(path))
    assert back == cfg
    path.write_text(json.dumps({"bogus": 1}))
    with pytest.raises(InputError):
        RunConfig.from_file(str(path))


def test_cli_config_rejects_undoublable_sections(tmp_path, capsys):
    # a cap below twice the start leaves no section to double into
    cfg_path = _write(tmp_path, "cfg.json",
                      json.dumps({"section_start": 64, "section_cap": 64}))
    code = main(["inverse", "--family", "monomial,gamma=0.5,k=1", "--config", cfg_path,
                 "--out", str(tmp_path / "a.json")] + FAST)
    assert code == 2
    err = capsys.readouterr().err
    assert "section_cap" in err
    assert "Traceback" not in err
    with pytest.raises(InputError):
        RunConfig(section_start=64, section_cap=127)


@pytest.mark.parametrize("command", [["check"], ["roundtrip"], ["inverse"]])
def test_cli_config_rejects_oversample_off_power_of_two(tmp_path, capsys, command):
    # the quadrature grid is M * oversample: the key is refused by name
    # before any command reads it, not as a grid size the user never set
    cfg_path = _write(tmp_path, "cfg.json", json.dumps({"oversample": 3}))
    code = main(command + ["--family", "zero", "--config", cfg_path,
                           "--out", str(tmp_path / "a.json")] + FAST_FOR[command[0]])
    assert code == 2
    err = capsys.readouterr().err
    assert "oversample must be a power of two, got 3" in err
    assert "grid size" not in err
    assert "Traceback" not in err
    for value in (1, 2, 8):
        assert RunConfig(oversample=value).oversample == value


def test_cli_roundtrip_rejects_negative_ladder(tmp_path, capsys):
    # the rungs follow from R's Fourier tail, so roundtrip takes no --ladder
    # at any value
    out = tmp_path / "report.json"
    for value in ("1", "-1"):
        with pytest.raises(SystemExit) as exc:
            main(["roundtrip", "--family", "monomial,gamma=0.5,k=1", "--ladder", value,
                  "--out", str(out)] + FAST_FOR["roundtrip"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"unrecognized arguments: --ladder {value}" in err
        assert "Traceback" not in err
        assert not out.exists()


def test_cli_roundtrip_rejects_undoublable_ladder(tmp_path, capsys, monkeypatch):
    # R = 0.5 tbar^300 at the defaults: the tail stays 0.5 below J = 301, so
    # J doubles from 16 to 512, whose union frame would start at N0 =
    # d + J = 812 and cannot double within section_cap 512. That top rung
    # runs first and is refused before any factorization
    from cmvscat import verblunsky

    def no_factor(*args):
        raise AssertionError("a union frame was factored before the refusal")

    monkeypatch.setattr(verblunsky, "union_factor", no_factor)
    out = tmp_path / "report.json"
    code = main(["roundtrip", "--family", "monomial,gamma=0.5,k=300", "--out", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert ("roundtrip rung J = 512 (Fourier tail 0.000e+00): level -512: union frame "
            "over [-512, 512] needs section size 1624 > section_cap 512: R's lower "
            "Fourier reach d = 300") in err
    assert "Traceback" not in err
    assert not out.exists()


def test_cli_roundtrip_ladder_within_cap_exits_3_on_certificate(tmp_path, capsys):
    # a section tolerance below rounding: the top rung (J = 12, from J = 6 on
    # a degree-6 input) doubles its union frame from N0 = 18 to the cap and
    # refuses, since its last change is rounding, not 0
    cfg_path = _write(tmp_path, "cfg.json", json.dumps(
        {"grid_size": 256, "levels": 6, "section_start": 16, "section_cap": 128,
         "section_tol": 1e-30}))
    code = main(["roundtrip", "--family", "random,degree=6,margin=0.25,seed=7",
                 "--config", cfg_path, "--out", str(tmp_path / "report.json")])
    assert code == 3
    err = capsys.readouterr().err
    assert re.search(r"roundtrip rung J = 12 \(Fourier tail 0\.000e\+00\): level -?\d+: "
                     r"union frame over \[-12, 12\] did not converge by section size 128", err)
    assert "Traceback" not in err


def test_cli_check_passes_past_the_section_start(tmp_path):
    # R = 0.5 tbar^100 at the defaults: level -16 couples only with g''_117.
    # A section from section_start 32 would decouple and read a0 = 1.0; both
    # routes start at N0 = d - level = 116 and read sqrt(0.75), as the
    # oracle does, so every entry passes
    out = str(tmp_path / "check.json")
    code = main(["check", "--family", "monomial,gamma=0.5,k=100", "--out", out])
    assert code == 0
    checks = {c["name"]: c for c in json.loads(open(out).read())["checks"]}
    for name in ("alpha_union_matches_per_level", "oracle_alpha_agreement",
                 "oracle_a0_agreement"):
        assert checks[name]["value"] <= 1e-15, name


def test_cli_check_bounds_take_no_config(tmp_path, capsys):
    # the bounds of check are fixed: a config that would loosen one, here
    # enough to pass the input above, is refused by name before any solve
    cfg_path = _write(tmp_path, "cfg.json", json.dumps({"tol_alg": 1.0}))
    out = tmp_path / "check.json"
    code = main(["check", "--family", "monomial,gamma=0.5,k=100", "--config", cfg_path,
                 "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "unknown config keys: ['tol_alg']" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_cli_check_chooses_its_roundtrip_window(tmp_path):
    # at --levels 1 the Fourier tail of R = 0.5 tbar is 0.5, past tol_roundtrip;
    # the roundtrip doubles J to 2, where it is 0, and the suite passes
    out = str(tmp_path / "check.json")
    code = main(["check", "--family", "monomial,gamma=0.5,k=1", "--levels", "1",
                 "--out", out])
    assert code == 0
    checks = {c["name"]: c for c in json.loads(open(out).read())["checks"]}
    assert checks["roundtrip_sup_error"]["value"] <= 1e-15


@pytest.mark.parametrize("command", [["inverse"], ["spectrum", "--levels", "0"],
                                     ["spectrum", "--levels", "100"], ["check", "--levels", "100"],
                                     ["check"], ["roundtrip"]])
def test_cli_conditioning_floor_refuses_every_command(tmp_path, capsys, command):
    # finding G's input, sup |R| = 1 - 1e-13 let past margin_min 1e-15: the
    # Szego guard refuses it before any section is factored
    cfg_path = _write(tmp_path, "cfg.json", json.dumps({"margin_min": 1e-15}))
    out = tmp_path / "o"
    code = main(command + ["--config", cfg_path, "--family",
                           "monomial,gamma=0.9999999999999,k=1", "--out", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert all(message in err for message in _SINGULAR)
    assert "Traceback" not in err
    assert not out.exists()


def test_cli_check_certifies_the_levels_below_the_section_start(tmp_path):
    # finding A's input: from section_start 8 a section of levels -24..-21
    # misses R's support and would certify alpha = 0, 5.0e-4 off. Each level
    # starts at N0 = max(8, d - level) = 4 - level, as the union frame and
    # the oracle do (N0 = J + d = 28), and all three agree
    cfg_path = _write(tmp_path, "cfg.json", json.dumps(
        {"grid_size": 256, "levels": 24, "section_start": 8, "section_cap": 128}))
    out = str(tmp_path / "check.json")
    code = main(["check", "--family", "random,degree=4,margin=0.2,seed=0",
                 "--config", cfg_path, "--out", out])
    assert code == 0
    checks = {c["name"]: c for c in json.loads(open(out).read())["checks"]}
    for name in ("alpha_union_matches_per_level", "oracle_alpha_agreement",
                 "oracle_a0_agreement"):
        assert checks[name]["value"] <= 1e-15, name


def test_cli_direct_boundary_follows_config(tmp_path, capsys):
    # direct and dump-matrix take the zero-tail window, and no flag picks
    # another: dump-matrix --boundary is refused
    from cmvscat import cmv, scattering

    seq = VerblunskySequence(-2, [0.2 + 0.1j, -0.3, 0.1 - 0.2j, 0.05, 0.1j])
    alphas = _write(tmp_path, "a.json", fileio.save_alphas(seq))
    small = dict(grid=64, window=16, depth=4)
    text = {}
    out = str(tmp_path / "U.csv")
    assert main(["dump-matrix", "--alphas", alphas, "--out", out]) == 0
    U = cmv.build_cmv(seq, scattering.minimal_window(seq)[0])
    assert open(out, newline="").read() == fileio.save_matrix_csv(cmv.dump_entries(U))
    with pytest.raises(SystemExit) as exc:
        main(["dump-matrix", "--alphas", alphas, "--boundary", "decoupled",
              "--out", str(tmp_path / "decoupled.csv")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --boundary decoupled" in capsys.readouterr().err
    assert not (tmp_path / "decoupled.csv").exists()
    out = str(tmp_path / "direct.json")
    assert main(["direct", "--alphas", alphas, "--out", out]
                + _scale("direct", **small)) == 0
    text["direct"] = open(out).read()
    grid = CircleGrid(64)
    values = scattering.boundary_reconstruction(fileio.load_alphas(alphas), grid, 16, 4)
    assert text["direct"] == fileio.save_reconstruction(grid.nodes, values, "json")


def test_cli_roundtrip_boundary_follows_config(tmp_path):
    # the reconstruction takes the zero-tail window of the union-frame
    # coefficients, and no flag picks another
    from cmvscat import scattering
    from cmvscat.verblunsky import union_verblunsky

    family = "random,degree=4,margin=0.3,seed=5"
    args = ["roundtrip", "--family", family] + FAST_FOR["roundtrip"]
    out = str(tmp_path / "report.json")
    assert main(args + ["--out", out]) == 0
    rungs = json.loads(open(out).read())["rungs"]
    assert [r["levels"] for r in rungs] == [4, 8]  # the degree-4 tail vanishes at 8
    R = from_string(family, CircleGrid(256))
    for rung in rungs:
        cfg = RunConfig(grid_size=256, levels=rung["levels"])
        seq = union_verblunsky(R, -cfg.levels, cfg.levels, cfg)
        rec = scattering.boundary_reconstruction(seq, R.grid)
        assert rung["sup_error"] == float(np.max(np.abs(rec - R.samples)))
    with pytest.raises(SystemExit):
        main(args + ["--boundary", "decoupled", "--out", out])


@pytest.mark.parametrize("family", ["monomial,gamma=0.7447,k=8",
                                    "random,degree=8,margin=0.2,seed=3"])
def test_cli_check_tail_reads_configured_window(tmp_path, family):
    # alpha_tail_square_sum reads the top quarter of [-J, J], levels 9..16 at
    # J = 16, where a degree-8 input's positive levels (nonzero up to 7) vanish
    out = str(tmp_path / "check.json")
    assert main(["check", "--family", family, "--out", out]) == 0
    checks = {c["name"]: c for c in json.loads(open(out).read())["checks"]}
    assert checks["alpha_tail_square_sum"]["value"] <= TAIL_TOL


def test_cli_direct_refuses_series_wider_than_grid_before_the_sweep(tmp_path, capsys,
                                                                    monkeypatch):
    # lo = -8000 fixes K = 8000 moment pairs, a series on [-7999, 7999] that
    # M = 1024 cannot hold: refused as synthesize refuses it, before the
    # window of half-width 7999 is built and swept
    from cmvscat import cmv

    def no_build(seq, W):
        raise AssertionError(f"build_cmv called at W = {W}")

    monkeypatch.setattr(cmv, "build_cmv", no_build)
    alphas = _write(tmp_path, "a.json", json.dumps({"lo": -8000, "alphas": [[0.1, 0.0]]}))
    code = main(["direct", "--alphas", alphas, "--out", str(tmp_path / "o.json")])
    assert code == 3
    err = capsys.readouterr().err
    assert ("Laurent window [-7999, 7999] does not fit a grid of size 1024; "
            "increase M") in err
    assert "Traceback" not in err
    assert not (tmp_path / "o.json").exists()


def test_cli_direct_refuses_window_without_moments(tmp_path, capsys):
    # lo >= 0 leaves no negative level, so the window fixes no moment: K = 0
    alphas = _write(tmp_path, "a.json", json.dumps({"lo": 0, "alphas": [[-0.5, 0.0]]}))
    code = main(["direct", "--alphas", alphas, "--out", str(tmp_path / "o.json")]
                + FAST_FOR["direct"])
    assert code == 2
    err = capsys.readouterr().err
    assert "window [0, 0] fixes K = 0" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o.json").exists()


@pytest.mark.parametrize("flags", [["--window", "78"], ["--depth", "1"],
                                   ["--window", "79", "--depth", "1"]])
def test_cli_direct_refuses_flags_below_the_minimum(tmp_path, capsys, flags):
    # the window [-80, 2] fixes 80 moment pairs from W + 1 >= 80 and
    # 2 depth > 2 on: one less of either exits 2 and names the minimum
    seq = VerblunskySequence(-80, 0.1 * np.cos(np.arange(83)) + 0.05j)
    alphas = _write(tmp_path, "a.json", fileio.save_alphas(seq))
    out = tmp_path / "o.json"
    assert main(["direct", "--alphas", alphas, "--grid", "256", *flags,
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "window [-80, 2] fixes K = " in err
    assert "of its 80 moment pairs" in err
    assert "is window 79 and depth 2" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_cli_direct_depth_alone_takes_the_least_window_at_that_depth(tmp_path, capsys):
    # --depth 40 on a file over [-16, 16] runs at W = 82, not at the
    # default pair's W = 34, and fixes the same 16 moment pairs; a window
    # below 82 at that depth exits 2 and names it
    seq = VerblunskySequence(-16, 0.1 * np.cos(np.arange(33)) + 0.05j)
    alphas = _write(tmp_path, "a.json", fileio.save_alphas(seq))
    runs = {}
    for name, flags in (("default", []), ("depth", ["--depth", "40"])):
        out = tmp_path / f"{name}.json"
        assert main(["direct", "--alphas", alphas, "--grid", "256", *flags,
                     "--out", str(out)]) == 0
        runs[name] = np.array(json.loads(out.read_text())["R"])
    assert np.max(np.abs(runs["depth"] - runs["default"])) <= 1e-15
    capsys.readouterr()
    assert main(["direct", "--alphas", alphas, "--grid", "256", "--depth", "40",
                 "--window", "81", "--out", str(tmp_path / "o.json")]) == 2
    err = capsys.readouterr().err
    assert ("fixes K = 0 of its 16 moment pairs at window 81 and depth 40; direct "
            "scattering needs lo < 0, and the minimum with depth >= 40 is window 82 "
            "and depth 40") in err
    assert not (tmp_path / "o.json").exists()


def test_cli_memory_error_exits_2(tmp_path, capsys, monkeypatch):
    # a grid or level window past the machine's memory keeps the contract;
    # the allocation is made to fail here, never tried
    from cmvscat import circle

    message = "Unable to allocate 16.0 TiB for an array with shape (1099511627776,)"

    def unable(*args):
        raise MemoryError(message)

    monkeypatch.setattr(circle, "synthesize", unable)
    out = tmp_path / "a.json"
    assert main(["inverse", "--family", "zero", "--out", str(out)] + FAST) == 2
    err = capsys.readouterr().err
    assert f"error: {message}" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_cli_direct_refuses_series_wider_than_grid(tmp_path, capsys):
    # K = 16 gives a series on [-15, 15], which a grid of 16 would alias
    rng = np.random.default_rng(4)
    seq = VerblunskySequence(-16, 0.1 * rng.standard_normal(33) + 0j)
    alphas = _write(tmp_path, "a.json", fileio.save_alphas(seq))
    code = main(["direct", "--alphas", alphas, "--grid", "16",
                 "--out", str(tmp_path / "o.json")])
    assert code == 3
    err = capsys.readouterr().err
    assert "does not fit a grid of size 16" in err
    assert "Traceback" not in err


def test_cli_readme_check_example_passes(tmp_path):
    # the README `check` example at the shipped defaults, tol_roundtrip 1e-3
    assert RunConfig().tol_roundtrip == 1e-3
    out = str(tmp_path / "check.json")
    assert main(["check", "--family", "random,degree=4,margin=0.2,seed=0",
                 "--out", out]) == 0
    checks = {c["name"]: c for c in json.loads(open(out).read())["checks"]}
    assert checks["roundtrip_sup_error"]["value"] <= 1e-14


@pytest.mark.parametrize("command", [["roundtrip"], ["check"]])
def test_cli_refuses_family_outside_grid_window(tmp_path, capsys, command):
    # k = 5000 lies outside [-127, 128] at M = 256; it used to fold onto an
    # aliased bin, and roundtrip exited 0 with sup error 0.5
    code = main(command + ["--family", "monomial,gamma=0.5,k=5000", "--grid", "256",
                           "--out", str(tmp_path / "o.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert "[-5000, -5000] outside the window [-127, 128]" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("entries, code, text", [
    ([[200, 0.5, 0.0]], 2, "outside the window [-127, 128]"),
    ([[-128, 0.1, 0.0], [0, 0.2, 0.0]], 2, "outside the window [-127, 128]"),
    ([[-200, 0.1, 0.0], [200, 0.1, 0.0]], 3, "does not fit a grid of size 256"),
])
def test_cli_coeffs_file_outside_grid_window(tmp_path, capsys, entries, code, text):
    # indices outside the grid's window are an input problem; a window wider
    # than the grid stays a resolution failure
    path = _write(tmp_path, "r.json", json.dumps({"type": "coeffs", "entries": entries}))
    assert main(["inverse", "--input", path, "--out", str(tmp_path / "o.json")]
                + FAST) == code
    err = capsys.readouterr().err
    assert text in err
    assert "Traceback" not in err


@pytest.mark.parametrize("threads", ["1", "2"])
def test_cli_check_verdict_independent_of_blas_threads(tmp_path, threads):
    # a certify input whose old rung ratio read 1.126 at one BLAS thread (exit 3)
    # and 1.020 at two (exit 0); the Fourier-tail entry passes at both
    src = os.path.dirname(os.path.dirname(cmvscat.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               PYTHONPATH=src)
    out = str(tmp_path / "check.json")
    proc = subprocess.run(
        [sys.executable, "-m", "cmvscat.cli", "check", "--family",
         "random,degree=7,margin=0.3260,seed=558555015", "--out", out],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    checks = {c["name"]: c for c in json.loads(open(out).read())["checks"]}
    assert checks["roundtrip_within_fourier_tail"]["passed"]


def test_cli_inverse_solves_each_level_once(tmp_path, monkeypatch):
    # plain inverse solves each level of [-J, J+1] once; only --report
    # re-solves them at the shifted split for split_dev
    from cmvscat import cli, verblunsky

    calls = {"split": 0, "pair": 0}

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(cli, "split_deviation",
                        counting("split", verblunsky.split_deviation))
    monkeypatch.setattr(verblunsky, "converged_defect_pair",
                        counting("pair", verblunsky.converged_defect_pair))
    J = 4  # FAST --levels
    out = str(tmp_path / "a.json")
    assert main(["inverse", "--family", "random,degree=4,margin=0.3,seed=5",
                 "--out", out] + FAST) == 0
    assert calls == {"split": 0, "pair": 2 * J + 2}
    rep = str(tmp_path / "rep.json")
    assert main(["inverse", "--family", "random,degree=4,margin=0.3,seed=5",
                 "--out", out, "--report", rep] + FAST) == 0
    assert calls == {"split": 1, "pair": (2 * J + 2) + (4 * J + 3)}
    assert json.loads(open(rep).read())["diagnostics"]["split_dev"] == 0.0


def test_cli_inverse_report_sections(tmp_path):
    rep = str(tmp_path / "rep.json")
    assert main(["inverse", "--family", "random,degree=4,margin=0.3,seed=5",
                 "--out", str(tmp_path / "a.json"), "--report", rep] + FAST) == 0
    report = json.loads(open(rep).read())
    sections = report["diagnostics"]["sections"]
    cfg = RunConfig()
    assert [s["level"] for s in sections] == list(range(-4, 6))
    assert all(2 * s["N0"] <= s["N"] <= cfg.section_cap for s in sections)
    assert all(set(s) == {"level", "N0", "N", "a0"} for s in sections)
    # a degree-4 input at M = 256: every level starts at section_start
    assert report["diagnostics"]["d"] == 4
    assert all(s["N0"] == max(cfg.section_start, 4 - s["level"]) for s in sections)
    # one cond, the a priori bound 1 / (1 - sup |R|^2) = 1 / (margin (2 - margin))
    R = from_string("random,degree=4,margin=0.3,seed=5", CircleGrid(256))
    assert report["diagnostics"]["cond"] == 1.0 / (1.0 - R.szego.sup_modulus**2)
    assert abs(report["diagnostics"]["cond"] - 1.0 / (0.3 * 1.7)) <= 1e-12
    assert [s["a0"] for s in sections] == report["convergence"]["a0s"]


def _readme_cli_examples():
    """The README CLI block as argv lists, continuation lines joined."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md")) as fh:
        text = fh.read()
    block = re.search(r"## CLI\n.*?```sh\n(.*?)```", text, re.S).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("cmvscat ")]


def test_readme_cli_examples_exit_0(tmp_path, monkeypatch):
    # the documented examples, in order, at the defaults; R.json is R = 0.5 tbar
    # in the coefficient format the README documents
    monkeypatch.chdir(tmp_path)
    _write(tmp_path, "R.json", json.dumps({"type": "coeffs", "entries": [[-1, 0.5, 0.0]]}))
    examples = _readme_cli_examples()
    assert [argv[0] for argv in examples] == ["inverse", "direct", "direct", "direct",
                                              "roundtrip", "spectrum", "check",
                                              "dump-matrix"]
    for argv in examples:
        assert main(argv) == 0, argv
    assert json.loads((tmp_path / "moments.json").read_text())["max_abs_dev"] <= 1e-6

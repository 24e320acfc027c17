"""Built-in reproducible input families for tests and the CLI."""

import numpy as np

from .circle import LaurentSeries, ScatteringFunction, synthesize
from .errors import InputError, ResolutionError


def zero(grid):
    return ScatteringFunction.from_coeffs(LaurentSeries(0, [0j]), grid)


def monomial(grid, gamma=0.5, k=1):
    """R = gamma tbar^k (a single negative-index coefficient)."""
    if abs(gamma) > 1:
        raise InputError(f"|gamma| must be <= 1, got {abs(gamma):.6g}")
    if not 1 <= k <= 2**53:  # beyond 2**53 index arithmetic leaves int64
        raise InputError(f"k must be a positive integer up to 2**53, got {k}")
    return ScatteringFunction.from_coeffs(LaurentSeries(-k, [complex(gamma)]), grid)


def blaschke(grid, r=0.8, zeros=(0.5, -0.3 + 0.2j)):
    """Scaled finite Blaschke product: |R| = r < 1 on the whole circle."""
    if not 0 <= r < 1:
        raise InputError(f"scale r must lie in [0, 1), got {r}")
    t = grid.nodes
    vals = np.full(grid.size, complex(r))
    for a in zeros:
        a = complex(a)
        if abs(a) >= 1:
            raise InputError(f"Blaschke zero must lie in the open disk, got {a}")
        vals *= (t - a) / (1.0 - np.conj(a) * t)
    return ScatteringFunction.from_samples(vals, grid)


def random_trig(grid, degree=8, margin=0.2, seed=0):
    """Random trigonometric polynomial rescaled to 1 - margin sup modulus."""
    if degree < 1:
        raise InputError("degree must be positive")
    if not 0 < margin < 1:
        raise InputError(f"margin must lie in (0, 1), got {margin}")
    if seed < 0:
        raise InputError(f"seed must be a nonnegative integer, got {seed}")
    if 2 * degree >= grid.size:  # refused before drawing 2 * degree + 1 numbers
        raise ResolutionError(f"Laurent window [{-degree}, {degree}] does not fit "
                              f"a grid of size {grid.size}; increase M")
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal(2 * degree + 1) + 1j * rng.standard_normal(
        2 * degree + 1
    )
    series = LaurentSeries(-degree, coeffs)
    sup = float(np.max(np.abs(synthesize(series, grid))))
    series = LaurentSeries(-degree, coeffs * ((1.0 - margin) / sup))
    return ScatteringFunction.from_coeffs(series, grid)


# family name -> (builder, parser of each parameter's value text)
_FAMILIES = {
    "zero": (zero, {}),
    "monomial": (monomial, {"gamma": complex, "k": int}),
    "blaschke": (blaschke, {"r": float, "zeros": lambda text: tuple(
        complex(z) for z in text.split(";") if z)}),
    "random": (random_trig, {"degree": int, "margin": float, "seed": int}),
}


def from_string(text, grid):
    """Build a family member from a family string.

    Format: name[,key=value,...], e.g. "monomial,gamma=0.5,k=1" or
    "random,degree=8,margin=0.2,seed=3". Complex values accept Python
    literal syntax like 0.8j. A bad value raises InputError naming its key.
    """
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts or parts[0] not in _FAMILIES:
        raise InputError(
            f"unknown family {text!r}; choose from {sorted(_FAMILIES)}"
        )
    name, kwargs = parts[0], {}
    build, parsers = _FAMILIES[name]
    for p in parts[1:]:
        if "=" not in p:
            raise InputError(f"family parameter {p!r} must be key=value")
        key, val = p.split("=", 1)
        key = key.strip()
        if key not in parsers:
            raise InputError(f"unknown parameter {key!r} for family {name!r}")
        try:
            kwargs[key] = parsers[key](val)
        except ValueError as exc:
            raise InputError(f"family parameter {key}={val!r}: {exc}") from exc
    return build(grid, **kwargs)

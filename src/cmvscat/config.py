"""Run configuration shared by the library drivers and the CLI.

Numerical parameters only. Where output goes and in which format are
CLI flags (`--out`, `--format`); no field switches a certificate of
`check` off.
The bounds `check` holds its entries to are the constants below, not
fields. The matrix window W and the wandering depth are no fields
either: they follow from the coefficient window
(`scattering.minimal_window`). The fields that remain are:

- `grid_size` and `levels`, the input grid M and the level window J;
- `section_start`, `section_cap`, `section_tol` and `oversample`, solver
  parameters: where section doubling starts, where it gives up, when
  it has converged, and the oracle's quadrature grid relative to M;
- `tol_roundtrip`, the accuracy target of the roundtrip: it picks the
  top level window J (`scattering.rung_sequences`), and `check` holds
  the roundtrip error to it;
- `margin_min`, the input guard: R must keep sup |R| <= 1 - margin_min.
"""

import dataclasses
import math
import numbers
from dataclasses import dataclass

from .errors import InputError
from .fileio import load_json_object

# the fixed bounds of `check`
TOL_ALG = 1e-8   # identities between two readings of the same coefficients
TOL_FUN = 1e-6   # agreement of function values, moments and the oracle
TAIL_TOL = 1e-6  # sum of |alpha_j|^2 over the top quarter of the window


@dataclass(frozen=True)
class RunConfig:
    grid_size: int = 1024        # M
    levels: int = 16             # J: coefficient window [-J, J]
    section_start: int = 32      # N doubling start
    section_cap: int = 512
    section_tol: float = 1e-9
    tol_roundtrip: float = 1e-3
    margin_min: float = 1e-3
    oversample: int = 4

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            kind, noun = ((numbers.Integral, "an integer") if f.type is int
                          else (numbers.Real, "a number"))
            if isinstance(value, bool) or not isinstance(value, kind):
                raise InputError(f"{f.name} must be {noun}, got {value!r}")
            if value <= 0:
                raise InputError(f"{f.name} must be positive")
            if not math.isfinite(value):  # JSON NaN/Infinity would void a bound
                raise InputError(f"{f.name} must be finite, got {value!r}")
        if self.oversample & (self.oversample - 1):  # the oracle grid is M * oversample
            raise InputError(f"oversample must be a power of two, got {self.oversample}")
        if self.section_cap < 2 * self.section_start:
            raise InputError(
                f"section_cap {self.section_cap} must be at least twice "
                f"section_start {self.section_start}, or no section can double"
            )

    def replace(self, **kw):
        return dataclasses.replace(self, **kw)

    @classmethod
    def from_file(cls, path):
        """RunConfig from a JSON object of field overrides.

        Malformed JSON, a value that is not an object and unknown keys
        raise InputError; an unreadable file raises OSError.
        """
        data = load_json_object(path)
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise InputError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)

    def to_dict(self):
        return dataclasses.asdict(self)

"""Run configuration shared by the library drivers and the CLI.

Numerical parameters only. Where output goes and in which format are
CLI flags (`--out`, `--format`), and so is the `dump-matrix` edge
policy (`--boundary`); no field switches a certificate of `check` off.
"""

import dataclasses
import json
from dataclasses import dataclass

from .errors import InputError


@dataclass(frozen=True)
class RunConfig:
    grid_size: int = 1024        # M
    levels: int = 16             # J: coefficient window [-J, J]
    section_start: int = 32      # N doubling start
    section_cap: int = 512
    section_tol: float = 1e-9
    cmv_window: int = 128        # W: basis window [-W, W]
    depth: int = 32
    tol_alg: float = 1e-8
    tol_fun: float = 1e-6
    tol_roundtrip: float = 1e-3
    margin_min: float = 1e-3
    tail_tol: float = 1e-6
    oversample: int = 4

    def __post_init__(self):
        for name in ("grid_size", "levels", "section_start", "section_cap",
                     "cmv_window", "depth", "oversample"):
            if getattr(self, name) <= 0:
                raise InputError(f"{name} must be positive")
        for name in ("section_tol", "tol_alg", "tol_fun", "tol_roundtrip",
                     "margin_min", "tail_tol"):
            if getattr(self, name) <= 0:
                raise InputError(f"{name} must be positive")
        if self.section_cap < 2 * self.section_start:
            raise InputError(
                f"section_cap {self.section_cap} must be at least twice "
                f"section_start {self.section_start}, or no section can double"
            )

    def replace(self, **kw):
        return dataclasses.replace(self, **kw)

    @classmethod
    def from_file(cls, path):
        with open(path) as fh:
            data = json.load(fh)
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise InputError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)

    def to_dict(self):
        return dataclasses.asdict(self)

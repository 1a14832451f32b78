"""Run configuration: an INI file with problem, search, mc, check, grids
and output sections.

Every setting, whether it comes from a file or from ``--override
section.key=value``, goes through one parser, ``RunConfig._set``.  Section
names are matched exactly and keys case-insensitively; an unknown section
or key, or a value that does not parse, raises ``ConfigError`` naming the
key.  ``mc.antithetic`` takes configparser's boolean words (1/yes/true/on,
0/no/false/off).  ``from_text`` and ``to_text`` round-trip, and overrides
apply on top of the file, so a run is reproducible from its printed config
alone.
"""

from __future__ import annotations

import configparser
import io
from dataclasses import dataclass, field, replace

import numpy as np

from .curvature_bounds import SearchConfig
from .field_expr import FieldError, ProblemSpec
from .presets import make_problem
from .semigroup_mc import MCConfig

__all__ = ["ConfigError", "RunConfig", "DEFAULT_CONFIG_TEXT", "split_override"]


class ConfigError(ValueError):
    """Malformed configuration file or override."""


DEFAULT_CONFIG_TEXT = """\
[problem]
dim = 2
U = gaussian
W = sqrt1sq

[search]
radii = 10, 100, 1000
grid_per_axis = 64
multistart_count = 8
local_steps = 300
seed = 0
tol = 1e-06

[mc]
n_paths = 100000
dt = 0.001
seed = 0
antithetic = true

[check]
kappa = auto
rho = auto
c = auto

[grids]
t_values = 0.1, 0.5, 1.0
x_points = (0, 0); (1, 1)
a_vectors = (0, 0); (0.1, 0); (0.5, 0); (1, 0)

[output]
path = report.csv
format = csv
"""


def _floats(text: str) -> tuple[float, ...]:
    items = [s.strip() for s in text.split(",") if s.strip()]
    try:
        return tuple(float(s) for s in items)
    except ValueError as exc:
        raise ConfigError(f"expected comma-separated floats, got {text!r}") from exc


def _points(text: str) -> tuple[tuple[float, ...], ...]:
    out = []
    for chunk in text.split(";"):
        chunk = chunk.strip().strip("()").strip()
        if chunk:
            out.append(_floats(chunk))
    return tuple(out)


def _fmt_float(v: float) -> str:
    return repr(float(v))


def _fmt_floats(values) -> str:
    return ", ".join(_fmt_float(v) for v in values)


def _fmt_points(points) -> str:
    return "; ".join("(" + _fmt_floats(pt) + ")" for pt in points)


def _auto_or_float(text: str) -> float | str:
    return "auto" if text == "auto" else float(text)


def _bool(text: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
    except KeyError:
        raise ValueError(f"expected one of 1/yes/true/on or 0/no/false/off, got {text!r}") from None


# section -> key -> (attribute, parser).  Keys are matched in lower case.  The
# search and mc keys name fields of the frozen SearchConfig and MCConfig.
_KEYS = {
    "problem": {"dim": ("dim", int), "u": ("u_spec", str), "w": ("w_spec", str)},
    "search": {
        "radii": ("radii_schedule", _floats),
        "grid_per_axis": ("grid_per_axis", int),
        "multistart_count": ("multistart_count", int),
        "local_steps": ("local_steps", int),
        "seed": ("seed", int),
        "tol": ("tol", float),
    },
    "mc": {
        "n_paths": ("n_paths", int),
        "dt": ("dt", float),
        "seed": ("seed", int),
        "antithetic": ("antithetic", _bool),
    },
    "check": {name: (name, _auto_or_float) for name in ("kappa", "rho", "c")},
    "grids": {
        "t_values": ("t_values", _floats),
        "x_points": ("x_points", _points),
        "a_vectors": ("a_vectors", _points),
    },
    "output": {"path": ("out_path", str), "format": ("out_format", str)},
}


def split_override(item: str) -> tuple[str, str]:
    """``section.key=value`` as (``section.key``, ``value``), both stripped."""
    if "=" not in item:
        raise ConfigError(f"override {item!r} is not of the form section.key=value")
    key, value = item.split("=", 1)
    key = key.strip()
    if "." not in key:
        raise ConfigError(f"override key {key!r} needs a section prefix")
    return key, value.strip()


@dataclass
class RunConfig:
    dim: int = 2
    u_spec: str = "gaussian"
    w_spec: str = "sqrt1sq"
    search: SearchConfig = field(default_factory=SearchConfig)
    mc: MCConfig = field(default_factory=MCConfig)
    kappa: float | str = "auto"
    rho: float | str = "auto"
    c: float | str = "auto"
    t_values: tuple[float, ...] = (0.1, 0.5, 1.0)
    x_points: tuple[tuple[float, ...], ...] = ((0.0, 0.0), (1.0, 1.0))
    a_vectors: tuple[tuple[float, ...], ...] = (
        (0.0, 0.0),
        (0.1, 0.0),
        (0.5, 0.0),
        (1.0, 0.0),
    )
    out_path: str = "report.csv"
    out_format: str = "csv"

    @staticmethod
    def default() -> "RunConfig":
        return RunConfig.from_text(DEFAULT_CONFIG_TEXT)

    @staticmethod
    def from_file(path) -> "RunConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                return RunConfig.from_text(fh.read())
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc

    @staticmethod
    def from_text(text: str) -> "RunConfig":
        cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"), interpolation=None)
        try:
            cp.read_string(text)
        except configparser.Error as exc:
            raise ConfigError(f"malformed config: {exc}") from exc
        if cp.defaults():
            raise ConfigError(f"unknown section {cp.default_section!r}")
        cfg = RunConfig()
        for sec in cp.sections():
            for name, value in cp.items(sec):
                cfg._set(f"{sec}.{name}", value)
        cfg.validate()
        return cfg

    def validate(self) -> None:
        if self.dim < 1:
            raise ConfigError("dim must be >= 1")
        if self.out_format not in ("csv", "pretty"):
            raise ConfigError(f"unsupported output format {self.out_format!r}")
        for pt in self.x_points:
            if len(pt) != self.dim:
                raise ConfigError(f"x point {pt} has wrong dimension (dim={self.dim})")
        for a in self.a_vectors:
            if len(a) != self.dim:
                raise ConfigError(f"a vector {a} has wrong dimension (dim={self.dim})")
        if any(t < 0 for t in self.t_values):
            raise ConfigError("t values must be >= 0")

    def apply_overrides(self, overrides) -> None:
        for item in overrides:
            self._set(*split_override(item))
        self.validate()

    def _set(self, key: str, value: str) -> None:
        """Set one ``section.key`` from its text: the one parser of every
        file entry and override."""
        sec, name = key.split(".", 1)
        if sec not in _KEYS:
            raise ConfigError(f"unknown section {sec!r} in {key!r}")
        if name.lower() not in _KEYS[sec]:
            raise ConfigError(f"unknown key {key!r}")
        attr, parse = _KEYS[sec][name.lower()]
        try:
            if sec in ("search", "mc"):
                setattr(self, sec, replace(getattr(self, sec), **{attr: parse(value)}))
            else:
                setattr(self, attr, parse(value))
        except ValueError as exc:
            raise ConfigError(f"bad value for {key!r}: {exc}") from exc

    def to_text(self) -> str:
        cp = configparser.ConfigParser(interpolation=None)
        cp["problem"] = {"dim": str(self.dim), "U": self.u_spec, "W": self.w_spec}
        cp["search"] = {
            "radii": _fmt_floats(self.search.radii_schedule),
            "grid_per_axis": str(self.search.grid_per_axis),
            "multistart_count": str(self.search.multistart_count),
            "local_steps": str(self.search.local_steps),
            "seed": str(self.search.seed),
            "tol": _fmt_float(self.search.tol),
        }
        cp["mc"] = {
            "n_paths": str(self.mc.n_paths),
            "dt": _fmt_float(self.mc.dt),
            "seed": str(self.mc.seed),
            "antithetic": "true" if self.mc.antithetic else "false",
        }
        cp["check"] = {
            "kappa": self.kappa if isinstance(self.kappa, str) else _fmt_float(self.kappa),
            "rho": self.rho if isinstance(self.rho, str) else _fmt_float(self.rho),
            "c": self.c if isinstance(self.c, str) else _fmt_float(self.c),
        }
        cp["grids"] = {
            "t_values": _fmt_floats(self.t_values),
            "x_points": _fmt_points(self.x_points),
            "a_vectors": _fmt_points(self.a_vectors),
        }
        cp["output"] = {"path": self.out_path, "format": self.out_format}
        buf = io.StringIO()
        cp.write(buf)
        return buf.getvalue()

    def build_problem(self) -> ProblemSpec:
        try:
            return make_problem(self.dim, self.u_spec, self.w_spec)
        except (ValueError, FieldError) as exc:
            raise ConfigError(f"cannot build problem: {exc}") from exc

    def x_grid(self) -> list[np.ndarray]:
        return [np.asarray(pt, dtype=float) for pt in self.x_points]

    def a_list(self) -> list[np.ndarray]:
        return [np.asarray(a, dtype=float) for a in self.a_vectors]

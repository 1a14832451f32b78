"""Run configuration: an INI file with problem, search, mc, check, grids
and output sections.

Every setting, whether it comes from a file or from ``--override
section.key=value``, goes through one parser, ``RunConfig._set``.  Section
names are matched exactly and keys case-insensitively; an unknown section
or key, or a value that does not parse, raises ``ConfigError`` naming the
key.  ``mc.antithetic`` takes configparser's boolean words (1/yes/true/on,
0/no/false/off).  ``from_text`` and ``to_text`` round-trip, and overrides
apply on top of the file, so a run is reproducible from its config file and
command line; no subcommand prints the config it resolved.  The schema is
one table, ``_KEYS``, with a parser and a formatter per key; the defaults
are those of :class:`RunConfig`, and ``RunConfig().to_text()`` prints them
as the template of every key.
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

__all__ = ["ConfigError", "RunConfig", "split_override"]


class ConfigError(ValueError):
    """Malformed configuration file or override."""


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


def _fmt_auto_or_float(v: float | str) -> str:
    return v if isinstance(v, str) else _fmt_float(v)


def _bool(text: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
    except KeyError:
        raise ValueError(f"expected one of 1/yes/true/on or 0/no/false/off, got {text!r}") from None


def _fmt_bool(v: bool) -> str:
    return "true" if v else "false"


# The schema: section -> key -> (attribute, parser, formatter), in the order
# ``to_text`` writes them.  Keys are matched in lower case.  The search and
# mc keys name fields of the frozen SearchConfig and MCConfig.
_KEYS = {
    "problem": {"dim": ("dim", int, str), "u": ("u_spec", str, str), "w": ("w_spec", str, str)},
    "search": {
        "radii": ("radii_schedule", _floats, _fmt_floats),
        "grid_per_axis": ("grid_per_axis", int, str),
        "multistart_count": ("multistart_count", int, str),
        "local_steps": ("local_steps", int, str),
        "seed": ("seed", int, str),
        "tol": ("tol", float, _fmt_float),
    },
    "mc": {
        "n_paths": ("n_paths", int, str),
        "dt": ("dt", float, _fmt_float),
        "seed": ("seed", int, str),
        "antithetic": ("antithetic", _bool, _fmt_bool),
    },
    "check": {name: (name, _auto_or_float, _fmt_auto_or_float) for name in ("kappa", "rho", "c")},
    "grids": {
        "t_values": ("t_values", _floats, _fmt_floats),
        "x_points": ("x_points", _points, _fmt_points),
        "a_vectors": ("a_vectors", _points, _fmt_points),
    },
    "output": {"path": ("out_path", str, str), "format": ("out_format", str, str)},
}
_NESTED = ("search", "mc")  # sections held in a frozen config of their own


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
        for key in ("t_values", "x_points"):
            if not getattr(self, key):
                raise ConfigError(f"grids.{key} is empty; give at least one value")

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
        attr, parse, _ = _KEYS[sec][name.lower()]
        try:
            if sec in _NESTED:
                setattr(self, sec, replace(getattr(self, sec), **{attr: parse(value)}))
            else:
                setattr(self, attr, parse(value))
        except ValueError as exc:
            raise ConfigError(f"bad value for {key!r}: {exc}") from exc

    def to_text(self) -> str:
        cp = configparser.ConfigParser(interpolation=None)
        for sec, keys in _KEYS.items():
            owner = getattr(self, sec) if sec in _NESTED else self
            cp[sec] = {name: fmt(getattr(owner, attr)) for name, (attr, _, fmt) in keys.items()}
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

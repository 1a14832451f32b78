"""Run configuration: an INI file with problem, search, MC, grid, and
output sections.

`RunConfig.from_text` and `to_text` round-trip, and `--override sec.key=val`
edits apply on top of the file, so a run is reproducible from its printed
config alone.
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

__all__ = ["ConfigError", "RunConfig", "DEFAULT_CONFIG_TEXT"]


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


def _auto_or_float(text: str, key: str) -> float | str:
    text = text.strip()
    if text == "auto":
        return "auto"
    try:
        return float(text)
    except ValueError as exc:
        raise ConfigError(f"[check] {key} must be 'auto' or a float, got {text!r}") from exc


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
        cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
        try:
            cp.read_string(text)
        except configparser.Error as exc:
            raise ConfigError(f"malformed config: {exc}") from exc
        cfg = RunConfig()
        try:
            if cp.has_section("problem"):
                sec = cp["problem"]
                cfg.dim = sec.getint("dim", cfg.dim)
                cfg.u_spec = sec.get("U", cfg.u_spec).strip()
                cfg.w_spec = sec.get("W", cfg.w_spec).strip()
            if cp.has_section("search"):
                sec = cp["search"]
                kwargs = {}
                if "radii" in sec:
                    radii = _floats(sec["radii"])
                    kwargs["radii_schedule"] = radii
                    kwargs["box_radius"] = radii[0]
                for key, attr in (
                    ("grid_per_axis", "grid_per_axis"),
                    ("multistart_count", "multistart_count"),
                    ("local_steps", "local_steps"),
                    ("seed", "seed"),
                ):
                    if key in sec:
                        kwargs[attr] = sec.getint(key)
                if "tol" in sec:
                    kwargs["tol"] = sec.getfloat("tol")
                cfg.search = replace(SearchConfig(), **kwargs)
            if cp.has_section("mc"):
                sec = cp["mc"]
                cfg.mc = MCConfig(
                    n_paths=sec.getint("n_paths", cfg.mc.n_paths),
                    dt=sec.getfloat("dt", cfg.mc.dt),
                    seed=sec.getint("seed", cfg.mc.seed),
                    antithetic=sec.getboolean("antithetic", cfg.mc.antithetic),
                )
            if cp.has_section("check"):
                sec = cp["check"]
                cfg.kappa = _auto_or_float(sec.get("kappa", "auto"), "kappa")
                cfg.rho = _auto_or_float(sec.get("rho", "auto"), "rho")
                cfg.c = _auto_or_float(sec.get("c", "auto"), "c")
            if cp.has_section("grids"):
                sec = cp["grids"]
                if "t_values" in sec:
                    cfg.t_values = _floats(sec["t_values"])
                if "x_points" in sec:
                    cfg.x_points = _points(sec["x_points"])
                if "a_vectors" in sec:
                    cfg.a_vectors = _points(sec["a_vectors"])
            if cp.has_section("output"):
                sec = cp["output"]
                cfg.out_path = sec.get("path", cfg.out_path).strip()
                cfg.out_format = sec.get("format", cfg.out_format).strip()
        except ValueError as exc:
            if isinstance(exc, ConfigError):
                raise
            raise ConfigError(f"bad config value: {exc}") from exc
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
            if "=" not in item:
                raise ConfigError(f"override {item!r} is not of the form section.key=value")
            key, value = item.split("=", 1)
            key = key.strip()
            if "." not in key:
                raise ConfigError(f"override key {key!r} needs a section prefix")
            self._set(key, value.strip())
        self.validate()

    def _set(self, key: str, value: str) -> None:
        sec, name = key.split(".", 1)
        try:
            if sec == "problem":
                if name == "dim":
                    self.dim = int(value)
                elif name == "U":
                    self.u_spec = value
                elif name == "W":
                    self.w_spec = value
                else:
                    raise ConfigError(f"unknown key {key!r}")
            elif sec == "search":
                if name == "radii":
                    radii = _floats(value)
                    self.search = replace(self.search, radii_schedule=radii, box_radius=radii[0])
                elif name in ("grid_per_axis", "multistart_count", "local_steps", "seed"):
                    self.search = replace(self.search, **{name: int(value)})
                elif name == "tol":
                    self.search = replace(self.search, tol=float(value))
                else:
                    raise ConfigError(f"unknown key {key!r}")
            elif sec == "mc":
                if name == "n_paths":
                    self.mc = replace(self.mc, n_paths=int(value))
                elif name == "dt":
                    self.mc = replace(self.mc, dt=float(value))
                elif name == "seed":
                    self.mc = replace(self.mc, seed=int(value))
                elif name == "antithetic":
                    self.mc = replace(self.mc, antithetic=value.lower() in ("1", "true", "yes", "on"))
                else:
                    raise ConfigError(f"unknown key {key!r}")
            elif sec == "check":
                if name in ("kappa", "rho", "c"):
                    setattr(self, name, _auto_or_float(value, name))
                else:
                    raise ConfigError(f"unknown key {key!r}")
            elif sec == "grids":
                if name == "t_values":
                    self.t_values = _floats(value)
                elif name == "x_points":
                    self.x_points = _points(value)
                elif name == "a_vectors":
                    self.a_vectors = _points(value)
                else:
                    raise ConfigError(f"unknown key {key!r}")
            elif sec == "output":
                if name == "path":
                    self.out_path = value
                elif name == "format":
                    self.out_format = value
                else:
                    raise ConfigError(f"unknown key {key!r}")
            else:
                raise ConfigError(f"unknown section {sec!r}")
        except ValueError as exc:
            if isinstance(exc, ConfigError):
                raise
            raise ConfigError(f"bad value for {key!r}: {value!r}") from exc

    def to_text(self) -> str:
        cp = configparser.ConfigParser()
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

"""Inequality verification harness for the weighted semigroup bounds.

The paper's three semigroup inequalities share one shape: a left side built
from Q_t f is at most c(t) Q_t(payload(f)).

* commutation  GammaW(Q_t f) <= e^{-2 kappa t} Q_t(GammaW(f));
* variance     Q_t(f^2) - (Q_t f)^2 + 2 int_0^t Q_s(W^2 (Q_{t-s} f)^2) ds
               <= (1 - e^{-2 kappa t})/kappa Q_t(GammaW(f));
* sqrt         sqrt(Gamma(Q_t f)) + W Q_t f <= e^{(c-rho)t} Q_t(sqrt(Gamma(f)) + W f).

Each checker supplies only its payload fields, c(t) and the left side at x;
``_battery_report`` is the one route that runs a battery of (label, field)
pairs over a (t, x) grid, estimates the right sides from one ensemble and
issues a three-valued verdict per case:

* ``pass``          margin >= -3 hypot(lhs_se, rhs_se) (plus a tiny roundoff slack);
* ``fail``          margin below the noise band with both sides estimated
                    tightly (relative standard error under the cap);
* ``inconclusive``  the noise is too large to call it either way.

The weighted bound W^2 <= e^{-2 kappa t} Q_t(W^2) is the commutation check
at f = 1, where GammaW(1) = W^2.  Margins are rhs - lhs, so nonnegative
means the inequality holds.  A report records the sampling configuration
that produced it, and serializes to a fixed CSV schema

    check_id, t, x0..x{n-1}, f_label, lhs, lhs_se, rhs, rhs_se, margin, verdict

with ``repr`` float formatting so reruns are byte-identical.

``optimality_study`` tabulates Gamma2W(f)/GammaW(f) for the exponential
family far out along rays.  Both forms are the fields of
``gamma_calculus.gamma2_w_sweep`` on the tape, the route of
``curvature_bounds.check_pointwise_cd``; the jet forms are its test oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import _tape
from .field_expr import DomainError, ProblemSpec, ScalarField, const_field, dot_field, normsq_field
from .gamma_calculus import gamma2_w_sweep, gamma_w_field, sqrt_gamma_w_field
from .semigroup_mc import (
    GradEstimate,
    MCConfig,
    MCEstimate,
    estimate_fk_term_many,
    estimate_grad_Qt_many,
    estimate_Qt_many,
    estimate_Qt_sq_many,
    mehler_grad_Qt,
    mehler_Qt,
)

__all__ = [
    "CaseResult",
    "VerificationReport",
    "battery",
    "exp_field",
    "verify_commutation",
    "verify_variance",
    "verify_sqrt_commutation",
    "optimality_study",
    "OptimalityRow",
    "OptimalityTable",
    "random_smooth_field",
    "random_weight_field",
    "random_problem",
]

STDERR_CAP_REL = 0.05  # relative stderr above which verdicts become inconclusive
PASS_SLACK_REL = 1e-9  # roundoff slack so exact equality cases pass at stderr 0


def csv_table(header: list[str], rows: list[list]) -> list[str]:
    """CSV lines: the header, then one line per row with every number
    written as ``repr(float)``, so reruns are byte-identical, and anything
    else as ``str``."""
    return [",".join(header)] + [
        ",".join(repr(float(v)) if isinstance(v, (int, float, np.floating)) else str(v) for v in row)
        for row in rows
    ]


@dataclass(frozen=True)
class CaseResult:
    check_id: str
    t: float
    x: np.ndarray
    f_label: str
    lhs: float
    lhs_se: float
    rhs: float
    rhs_se: float
    verdict: str

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs


@dataclass
class VerificationReport:
    check_id: str
    cases: list[CaseResult] = dc_field(default_factory=list)
    meta: dict = dc_field(default_factory=dict)

    @property
    def n_fail(self) -> int:
        return sum(c.verdict == "fail" for c in self.cases)

    @property
    def n_inconclusive(self) -> int:
        return sum(c.verdict == "inconclusive" for c in self.cases)

    @property
    def passed(self) -> bool:
        return self.n_fail == 0

    @property
    def inconclusive_fraction(self) -> float:
        return self.n_inconclusive / len(self.cases) if self.cases else 0.0

    def csv_lines(self) -> list[str]:
        if not self.cases:
            return []
        dim = self.cases[0].x.shape[0]
        header = ["check_id", "t", *(f"x{i}" for i in range(dim))]
        header += ["f_label", "lhs", "lhs_se", "rhs", "rhs_se", "margin", "verdict"]
        return csv_table(header, [
            [c.check_id, c.t, *c.x, c.f_label, c.lhs, c.lhs_se, c.rhs, c.rhs_se, c.margin, c.verdict]
            for c in self.cases
        ])

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(self.csv_lines()) + "\n")

    def summary(self) -> str:
        n = len(self.cases)
        lines = [
            f"check {self.check_id}: {n} cases, "
            f"{n - self.n_fail - self.n_inconclusive} pass, "
            f"{self.n_fail} fail, {self.n_inconclusive} inconclusive"
        ]
        if self.meta:
            lines.append("  config: " + ", ".join(f"{k}={v}" for k, v in sorted(self.meta.items())))
        if self.cases:
            worst = min(self.cases, key=lambda c: c.margin)
            lines.append(
                f"  worst margin {worst.margin:.6g} "
                f"(t={worst.t:g}, x={np.array2string(worst.x, separator=',')}, f={worst.f_label})"
            )
        return "\n".join(lines)


def _verdict(lhs: float, lhs_se: float, rhs: float, rhs_se: float) -> str:
    scale = max(abs(lhs), abs(rhs), 1.0)
    if not (math.isfinite(lhs_se) and math.isfinite(rhs_se)):
        return "inconclusive"
    if lhs_se > STDERR_CAP_REL * scale or rhs_se > STDERR_CAP_REL * scale:
        return "inconclusive"
    margin = rhs - lhs
    if margin >= -3.0 * math.hypot(lhs_se, rhs_se) - PASS_SLACK_REL * scale:
        return "pass"
    return "fail"


def _case(check_id, t, x, label, lhs, lhs_se, rhs, rhs_se) -> CaseResult:
    return CaseResult(
        check_id=check_id,
        t=float(t),
        x=np.asarray(x, dtype=float),
        f_label=label,
        lhs=float(lhs),
        lhs_se=float(lhs_se),
        rhs=float(rhs),
        rhs_se=float(rhs_se),
        verdict=_verdict(lhs, lhs_se, rhs, rhs_se),
    )


# ---------------------------------------------------------------------------
# Test-function battery
# ---------------------------------------------------------------------------


def exp_field(a, dim: int) -> ScalarField:
    """f(x) = exp(a . x), the extremal family for the weighted bounds."""
    return dot_field(a, dim).exp()


def battery(dim: int) -> list[tuple[str, ScalarField]]:
    """Five positive test functions: three exponentials, a quadratic
    polynomial bounded away from zero, and a Gaussian bump."""
    e1 = np.zeros(dim)
    e1[0] = 1.0
    diag = np.full(dim, 0.5)
    x0 = ScalarField.parse("x0", dim)
    return [
        ("exp_a0.1", exp_field(0.1 * e1, dim)),
        ("exp_a1.0", exp_field(e1, dim)),
        ("exp_diag", exp_field(diag, dim)),
        ("poly_quad", 1.0 + x0 + x0 * x0),
        ("bump", (-normsq_field(dim)).exp()),
    ]


# ---------------------------------------------------------------------------
# Checkers
# ---------------------------------------------------------------------------


def _battery_report(
    check_id: str,
    p: ProblemSpec,
    fields,
    payloads,
    coef,
    lhs,
    t_grid,
    x_grid,
    cfg: MCConfig,
    **meta,
) -> VerificationReport:
    """The one route of every check: lhs <= coef(t) Q_t(payload) for each
    (label, field) of ``fields``, whose payload is the field of the same
    index in ``payloads``.  ``lhs(x_grid, t_grid)`` first returns the
    [x][field][t] pairs (lhs, lhs_se) over the whole grid, then the right
    sides are estimated from one ensemble for all x on stream (0,).  Cases
    come in (field, t, x) order; the report's meta is the sampling
    configuration plus ``meta``."""
    t_grid, x_grid = list(t_grid), list(x_grid)
    coefs = [coef(t) for t in t_grid]
    left = lhs(x_grid, t_grid)
    right = estimate_Qt_many(p, payloads, x_grid, t_grid, cfg, stream=(0,))
    meta = {"seed": cfg.seed, "n_paths": cfg.n_paths, "dt": cfg.dt, "antithetic": cfg.antithetic, **meta}
    report = VerificationReport(check_id, meta=meta)
    for i, (label, _) in enumerate(fields):
        for j, (t, k) in enumerate(zip(t_grid, coefs)):
            for x, lhs_x, rhs_x in zip(x_grid, left, right):
                rhs = rhs_x[i][j]
                report.cases.append(_case(check_id, t, x, label, *lhs_x[i][j], k * rhs.mean, k * rhs.stderr))
    return report


def _gradient_lhs(p: ProblemSpec, fs, cfg: MCConfig, form):
    """The left side form(W(x), Q_t f(x), grad Q_t f(x)) for every field and
    t, as ``_battery_report`` takes it.  This is where the left sides pick
    their route: for a Gaussian U (``p.gaussian_U``) Q_t f and its gradient
    come from Mehler's closed forms (mehler_Qt, mehler_grad_Qt) with zero
    stderr, no paths and h = 0; otherwise both are Monte Carlo, the gradient
    by common-random-number central differences."""

    def closed_forms(f, x, t):
        return (
            MCEstimate(mehler_Qt(p, f, x, t), 0.0, 0, cfg.dt),
            GradEstimate(mehler_grad_Qt(p, f, x, t), np.zeros(p.dim), 0, cfg.dt, 0.0),
        )

    def lhs(x_grid, t_grid):
        if p.gaussian_U:
            pairs = [[[closed_forms(f, x, t) for t in t_grid] for f in fs] for x in x_grid]
        else:
            qts = estimate_Qt_many(p, fs, x_grid, t_grid, cfg, stream=(5,))
            gests = estimate_grad_Qt_many(p, fs, x_grid, t_grid, cfg)
            pairs = [[list(zip(*rows)) for rows in zip(*by_x)] for by_x in zip(qts, gests)]
        return [
            [[form(w, q, g) for q, g in row] for row in rows]
            for w, rows in zip((p.W.value(x) for x in x_grid), pairs)
        ]

    return lhs


def _gamma_w_lhs(w: float, qt: MCEstimate, gest: GradEstimate) -> tuple[float, float]:
    """GammaW(Q_t f) = |grad Q_t f|^2 + W^2 (Q_t f)^2 with a delta-method
    error bar."""
    grad, q = gest.grad, qt.mean
    lhs = float(grad @ grad) + w * w * q * q
    var = float(np.sum((2.0 * grad * gest.stderr) ** 2))
    var += (2.0 * w * w * q * qt.stderr) ** 2
    return lhs, math.sqrt(var)


def verify_commutation(
    p: ProblemSpec,
    fields,
    kappa: float,
    t_grid,
    x_grid,
    cfg: MCConfig,
) -> VerificationReport:
    """GammaW(Q_t f) <= e^{-2 kappa t} Q_t(GammaW(f)) over the grid, for each
    (label, f) of the battery ``fields``."""
    fs = [f for _, f in fields]
    return _battery_report(
        "commutation", p, fields, [gamma_w_field(p, f, f) for f in fs],
        lambda t: math.exp(-2.0 * kappa * t), _gradient_lhs(p, fs, cfg, _gamma_w_lhs),
        t_grid, x_grid, cfg, kappa=kappa,
    )


def verify_variance(
    p: ProblemSpec,
    fields,
    kappa: float,
    t_grid,
    x_grid,
    cfg: MCConfig,
    time_nodes: int = 21,
) -> VerificationReport:
    """Q_t(f^2) - (Q_t f)^2 + 2 int_0^t Q_s(W^2 (Q_{t-s} f)^2) ds
    <= (1 - e^{-2 kappa t})/kappa Q_t(GammaW(f)), with the kappa -> 0
    coefficient meaning 2t, for each (label, f) of the battery ``fields``."""
    fs = [f for _, f in fields]
    f_sq = [f * f for f in fs]

    def lhs(x_grid, t_grid):
        qt_fsq = estimate_Qt_many(p, f_sq, x_grid, t_grid, cfg, stream=(6,))
        qt_sq = estimate_Qt_sq_many(p, fs, x_grid, t_grid, cfg)
        # the memory term's Simpson nodes depend on t: one call per t, [t][x][field]
        by_t = [estimate_fk_term_many(p, fs, x_grid, t, time_nodes, cfg) for t in t_grid]
        fk = [zip(*rows) for rows in zip(*by_t)]  # [x][field][t]
        return [
            [
                [
                    (a.mean - b.mean + c.mean, math.sqrt(a.stderr**2 + b.stderr**2 + c.stderr**2))
                    for a, b, c in zip(*rows)
                ]
                for rows in zip(*by_x)
            ]
            for by_x in zip(qt_fsq, qt_sq, fk)
        ]

    return _battery_report(
        "variance", p, fields, [gamma_w_field(p, f, f) for f in fs],
        lambda t: _variance_coefficient(kappa, t), lhs, t_grid, x_grid, cfg, kappa=kappa, time_nodes=time_nodes,
    )


def _variance_coefficient(kappa: float, t: float) -> float:
    if kappa == 0.0:
        return 2.0 * t
    return (1.0 - math.exp(-2.0 * kappa * t)) / kappa


class NegativeBatteryError(ValueError):
    """The square-root commutation check needs a nonnegative test function."""


def _reject_negative(f: ScalarField, x_grid, dim: int) -> None:
    rng = np.random.default_rng(0)
    grid = np.asarray(x_grid, dtype=float).reshape(-1, dim)
    pts = np.vstack([grid, rng.uniform(-6.0, 6.0, size=(512, dim))])
    vals, err = _tape.eval_values(f, pts)
    bad = np.flatnonzero((err != 0) | (vals < 0.0))
    if bad.size and err[bad[0]]:
        raise DomainError(f"test function: {_tape.err_message(err[bad[0]])} at {pts[bad[0]]!r}")
    if bad.size:
        raise NegativeBatteryError(f"test function is negative at {pts[bad[0]]!r}")


def _sqrt_lhs(w: float, qt: MCEstimate, gest: GradEstimate) -> tuple[float, float]:
    """|grad Q_t f| + W Q_t f with a delta-method error bar."""
    norm = float(np.linalg.norm(gest.grad))
    lhs = norm + w * qt.mean
    dir_se = (
        float(np.linalg.norm(gest.grad * gest.stderr)) / norm
        if norm > 0.0
        else float(np.linalg.norm(gest.stderr))
    )
    return lhs, math.hypot(dir_se, w * qt.stderr)


def verify_sqrt_commutation(
    p: ProblemSpec,
    fields,
    rho: float,
    c: float,
    t_grid,
    x_grid,
    cfg: MCConfig,
) -> VerificationReport:
    """sqrt(Gamma(Q_t f)) + W Q_t f <= e^{(c-rho)t} Q_t(sqrt(Gamma(f)) + W f)
    for each (label, f) of the battery ``fields``; every f must be
    nonnegative, which is checked before any sampling."""
    fs = [f for _, f in fields]
    x_grid = list(x_grid)
    for f in fs:
        _reject_negative(f, x_grid, p.dim)
    return _battery_report(
        "sqrt", p, fields, [sqrt_gamma_w_field(p, f) for f in fs],
        lambda t: math.exp((c - rho) * t), _gradient_lhs(p, fs, cfg, _sqrt_lhs),
        t_grid, x_grid, cfg, rho=rho, c=c,
    )


# ---------------------------------------------------------------------------
# Optimality study
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OptimalityRow:
    a: np.ndarray
    radius: float
    ratio: float
    limit: float  # -1 + |a|^2


@dataclass
class OptimalityTable:
    rows: list[OptimalityRow]
    radii: tuple[float, ...]

    @property
    def best_kappa(self) -> float:
        r_max = max(self.radii)
        return min(r.ratio for r in self.rows if r.radius == r_max)

    def check(self) -> bool:
        tol = 1e-2  # for the ratios at the largest radius and the best kappa
        r_max = max(self.radii)
        at_limit = all(
            abs(r.ratio - r.limit) <= tol for r in self.rows if r.radius == r_max
        )
        return at_limit and abs(self.best_kappa - (-1.0)) <= tol

    def csv_lines(self) -> list[str]:
        dim = self.rows[0].a.shape[0] if self.rows else 0
        header = [f"a{i}" for i in range(dim)] + ["radius", "ratio", "limit", "abs_err"]
        return csv_table(header, [
            [*r.a, r.radius, r.ratio, r.limit, abs(float(r.ratio - r.limit))] for r in self.rows
        ])


def optimality_study(p: ProblemSpec, a_list, radius_list) -> OptimalityTable:
    """Ratio Gamma2W(f_a)/GammaW(f_a) along x = r a/|a| for each a and r.

    The exponential is recentered as e^{a.(x - x_r)} before evaluating; both
    operators are quadratic in f, so the ratio is unchanged and the huge
    factor e^{2 a . x_r} never materializes.  Gamma2W and GammaW are the
    fields of ``gamma2_w_sweep``, evaluated at x_r as two outputs of one tape
    per field, as ``check_pointwise_cd`` evaluates them; an error code there
    raises DomainError.
    """
    if not p.gaussian_U:
        raise ValueError("the optimality study is for the Gaussian potential")
    if p.dim < 2:
        raise ValueError("the optimality study needs dim >= 2")
    cases, fs = [], []
    for a in a_list:
        a = np.asarray(a, dtype=float)
        norm = float(np.linalg.norm(a))
        direction = a / norm if norm > 0 else np.eye(p.dim)[0]
        for r in radius_list:
            x = float(r) * direction
            cases.append((a, float(r), -1.0 + norm * norm, x))
            fs.append((dot_field(a, p.dim) - float(a @ x)).exp())
    rows: list[OptimalityRow] = []
    for (a, r, limit, x), (g2w_f, gw_f) in zip(cases, gamma2_w_sweep(p, fs)):
        (g2w, gw), err = _tape.eval_outputs(_tape.compile_outputs([g2w_f, gw_f]), x[None, :])
        if err[0]:
            raise DomainError(f"optimality study: {_tape.err_message(int(err[0]))} at {x!r}")
        rows.append(OptimalityRow(a=a, radius=r, ratio=float(g2w[0]) / float(gw[0]), limit=limit))
    return OptimalityTable(rows=rows, radii=tuple(float(r) for r in radius_list))


# ---------------------------------------------------------------------------
# Random smooth fields (for algebra identities and pointwise sweeps)
# ---------------------------------------------------------------------------


def random_smooth_field(rng: np.random.Generator, dim: int, depth: int = 3) -> ScalarField:
    """A random field that is C-infinity on all of R^n.

    Coefficients are kept small so values stay moderate on |x| <= 3; growth
    is at most exp(linear) times polynomial.
    """

    def leaf() -> ScalarField:
        k = rng.integers(0, 4)
        if k == 0:
            return const_field(rng.uniform(-2.0, 2.0), dim)
        if k == 1:
            i = int(rng.integers(0, dim))
            return ScalarField.parse(f"x{i}", dim)
        if k == 2:
            return dot_field(rng.uniform(-1.0, 1.0, size=dim), dim)
        return rng.uniform(0.05, 0.5) * normsq_field(dim)

    def gen(d: int) -> ScalarField:
        if d == 0:
            return leaf()
        k = rng.integers(0, 8)
        if k <= 1:
            return gen(d - 1) + gen(d - 1)
        if k == 2:
            return gen(d - 1) - gen(d - 1)
        if k == 3:
            return gen(d - 1) * gen(d - 1)
        if k == 4:
            return dot_field(rng.uniform(-0.7, 0.7, size=dim), dim).exp()
        if k == 5:
            g = gen(d - 1)
            return (1.0 + g * g).sqrt()
        if k == 6:
            g = gen(d - 1)
            return 1.0 / (1.0 + g * g)
        return (-rng.uniform(0.1, 1.0) * normsq_field(dim)).exp()

    return gen(depth)


def random_weight_field(rng: np.random.Generator, dim: int) -> ScalarField:
    """A random pointwise-nonnegative smooth weight."""
    k = rng.integers(0, 3)
    if k == 0:
        g = random_smooth_field(rng, dim, depth=2)
        return (1.0 + g * g).sqrt()
    if k == 1:
        g = random_smooth_field(rng, dim, depth=1)
        return 0.5 + g * g
    return dot_field(rng.uniform(-0.5, 0.5, size=dim), dim).exp()


def random_problem(rng: np.random.Generator, dim: int) -> ProblemSpec:
    """Random smooth (U, W) pair for pointwise identity sweeps."""
    return ProblemSpec(
        dim=dim,
        U=random_smooth_field(rng, dim, depth=2),
        W=random_weight_field(rng, dim),
    )

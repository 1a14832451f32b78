"""Global bound estimation: rho, gamma, c, and the pointwise curvature check.

The three constants are extrema over all of R^n:

    rho   = inf_x  lambda_min(Hess U(x))
    gamma = inf_{W(x) != 0}  (lap W/W - 3|grad W|^2/W^2 - grad U . grad W/W)
    c     = max( 2 sup_x |grad W(x)|,
                 sup_{W(x) != 0} max(rho - LW/W, 0) )

Each constant is one objective, searched once over an increasing schedule
of boxes [-R, R]^n: a dense grid for n <= 2, deterministic probes (corners,
axis endpoints, log-spaced radial rays) and random points, then a compass
search in the box from the best few and some random starts, one tape batch
per round for all of them.  Since sup max = max sup, c's objective is the
larger of its two branches at each point.  The points of {W != 0} are those
where the objective evaluates without an error code and |W| >= WEIGHT_EPS,
one mask for gamma and c.  W is read as a second output of the objective's
own tape, so a search batch makes one tape call per objective: one for
gamma, and two for c, whose branch 2 sup|grad W| runs over every x, W = 0
included, on a tape of its own.  Extrema that keep escaping to larger radii
are reported as diverging (value -inf or +inf) with the per-radius trace
attached; the rule is a heuristic and the trace is always kept so callers
can judge.

``check_pointwise_cd`` tests the curvature inequality Gamma2W >= kappa GammaW
over a sweep of (field, points) cases, Gamma2W and GammaW as two outputs of
one tape batch per field, and reports the violations of the whole sweep.  The
U/W-only terms of Gamma2W are built once per sweep; each field's
derivatives are built once for its Gamma2W and GammaW together.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field as dc_field, replace
from typing import Callable, Sequence

import numpy as np

from . import _tape
from .field_expr import DomainError, ProblemSpec, ScalarField
from .gamma_calculus import (
    WEIGHT_EPS,
    apply_L_symbolic,
    gamma2_w_sweep,
    gamma_field,
    gamma_integrand_field,
)

__all__ = [
    "SearchConfig",
    "BoundEstimate",
    "ViolationReport",
    "estimate_rho",
    "estimate_gamma",
    "estimate_c",
    "check_pointwise_cd",
]


@dataclass(frozen=True)
class SearchConfig:
    radii_schedule: tuple[float, ...] = (10.0, 100.0, 1000.0)
    grid_per_axis: int = 64
    multistart_count: int = 8  # random compass-search starts per radius, besides the 4 best candidates
    local_steps: int = 300  # compass-search rounds per radius, one batch evaluation each
    seed: int = 0
    tol: float = 1e-6

    def __post_init__(self):
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        radii = tuple(float(r) for r in self.radii_schedule)
        if not radii or radii[0] <= 0:
            raise ValueError("radii_schedule must be non-empty and start above 0")
        if any(b <= a for a, b in zip(radii, radii[1:])):
            raise ValueError("radii_schedule must be strictly increasing")
        object.__setattr__(self, "radii_schedule", radii)


@dataclass
class BoundEstimate:
    """Estimated extremum with witness, per-radius trace, divergence verdict.

    ``value`` is +-inf when diverging; the witness then marks the extremum at
    the largest radius (and reproduces the last trace entry, not ``value``).
    """

    value: float
    witness: np.ndarray | None
    diverging: bool
    trace: list[float] = dc_field(default_factory=list)


@dataclass
class ViolationReport:
    n_checked: int
    n_violations: int
    n_domain_errors: int
    worst_margin: float | None
    worst_point: np.ndarray | None


# ---------------------------------------------------------------------------
# Candidate generation and the generic box extremizer
# ---------------------------------------------------------------------------


def _candidate_points(radius: float, dim: int, cfg: SearchConfig, rng: np.random.Generator) -> np.ndarray:
    pts: list[np.ndarray] = []
    if dim <= 2:
        axis = np.linspace(-radius, radius, cfg.grid_per_axis)
        grid = np.stack(np.meshgrid(*([axis] * dim), indexing="ij"), axis=-1)
        pts.append(grid.reshape(-1, dim))
    if dim <= 6:
        corners = np.array(list(itertools.product((-radius, radius), repeat=dim)))
        pts.append(corners)
    eye = np.eye(dim)
    pts.append(radius * np.vstack([eye, -eye]))
    pts.append(np.zeros((1, dim)))

    dirs = [eye[i] for i in range(dim)]
    dirs.append(np.ones(dim) / math.sqrt(dim))
    extra = rng.standard_normal((6, dim))
    dirs.extend(d / np.linalg.norm(d) for d in extra)
    for d in dirs:
        r_max = radius / np.max(np.abs(d))
        radii = np.geomspace(1e-2, r_max, 40)
        ray = radii[:, None] * d[None, :]
        pts.append(ray)
        pts.append(-ray)

    pts.append(rng.uniform(-radius, radius, size=(256, dim)))
    return np.vstack(pts)


def _diverging(trace: Sequence[float], tol: float) -> bool:
    """Monotone unbounded-descent rule on a minimization trace.

    True iff every consecutive pair drops by more than tol and the last drop
    exceeds the first (needs >= 3 radii to ever trigger).
    """
    finite = [v for v in trace if math.isfinite(v)]
    if len(finite) != len(trace) or len(trace) < 3:
        return False
    drops = [a - b for a, b in zip(trace, trace[1:])]
    return all(d > tol for d in drops) and drops[-1] > drops[0]


def _extremize_min(
    batch_values: Callable[[np.ndarray], np.ndarray],
    dim: int,
    cfg: SearchConfig,
) -> BoundEstimate:
    """Minimize batch_values over the radii schedule; it returns NaN to skip.

    Each radius evaluates its candidates in one batch, then refines the 4
    best and ``multistart_count`` uniform draws together by compass search
    (Kolda, Lewis & Torczon, SIAM Review 45(3), 2003); starts whose value is
    not finite are dropped.  Each round is one batch call: every start tries
    x +- h e_i, clipped to the box, moves to its lowest trial if that is
    lower, and otherwise halves h.  h starts at 0.1 radius; a start stops at
    h <= 1e-10 radius, and the refinement after ``local_steps`` rounds.  The
    best candidate is a start, so the best refined start is the radius's best.
    """
    rng = np.random.default_rng(cfg.seed)
    moves = np.vstack([np.eye(dim), -np.eye(dim)])
    best_val = math.inf
    best_pt: np.ndarray | None = None
    trace: list[float] = []
    for radius in cfg.radii_schedule:
        cand = _candidate_points(radius, dim, cfg, rng)
        vals = batch_values(cand)
        x = np.vstack([
            cand[np.argsort(np.where(np.isfinite(vals), vals, np.inf))[:4]],
            rng.uniform(-radius, radius, size=(cfg.multistart_count, dim)),
        ])
        fx = batch_values(x)
        x, fx = x[np.isfinite(fx)], fx[np.isfinite(fx)]
        h = np.full(len(x), 0.1 * radius)
        for _ in range(cfg.local_steps):
            live = np.flatnonzero(h > 1e-10 * radius)
            if live.size == 0:
                break
            trials = np.clip(x[live, None] + h[live, None, None] * moves, -radius, radius)
            tv = batch_values(trials.reshape(-1, dim)).reshape(live.size, -1)
            tv = np.where(np.isfinite(tv), tv, np.inf)
            j = np.argmin(tv, axis=1)
            better = tv[np.arange(live.size), j] < fx[live]
            x[live[better]] = trials[better, j[better]]
            fx[live[better]] = tv[better, j[better]]
            h[live[~better]] *= 0.5
        if fx.size and fx.min() < best_val:
            best_val = float(fx.min())
            best_pt = x[np.argmin(fx)].copy()
        trace.append(best_val)
    diverging = _diverging(trace, cfg.tol)
    return BoundEstimate(
        value=-math.inf if diverging else best_val,
        witness=best_pt,
        diverging=diverging,
        trace=trace,
    )


def _exact(value: float, witness: np.ndarray | None, s: SearchConfig) -> BoundEstimate:
    """A closed-form result, with the value repeated as its per-radius trace."""
    return BoundEstimate(value, witness, diverging=False, trace=[value] * len(s.radii_schedule))


# ---------------------------------------------------------------------------
# rho: infimum of the smallest Hessian eigenvalue of U
# ---------------------------------------------------------------------------


def estimate_rho(p: ProblemSpec, s: SearchConfig) -> BoundEstimate:
    """inf over the box schedule of lambda_min(Hess U); exact 1 for Gaussian U."""
    if p.gaussian_U:
        return _exact(1.0, np.zeros(p.dim), s)
    n = p.dim
    upper = [(i, j) for i in range(n) for j in range(i, n)]
    tape = _tape.compile_outputs([p.U.diff(i).diff(j) for i, j in upper])

    def batch(pts: np.ndarray) -> np.ndarray:
        entries, err = _tape.eval_outputs(tape, pts)
        hess = np.empty((pts.shape[0], n, n))
        for (i, j), vals in zip(upper, entries):
            hess[:, i, j] = hess[:, j, i] = vals
        ok = err == 0
        out = np.full(pts.shape[0], np.nan)
        if ok.any():
            out[ok] = np.linalg.eigvalsh(hess[ok])[:, 0]
        return out

    return _extremize_min(batch, n, s)


# ---------------------------------------------------------------------------
# gamma: infimum of the curvature integrand over {W != 0}
# ---------------------------------------------------------------------------


def estimate_gamma(p: ProblemSpec, s: SearchConfig) -> BoundEstimate:
    """inf of the curvature integrand; +inf for W = 0 (empty domain)."""
    if p.W.is_zero():
        return _exact(math.inf, None, s)
    tape = _tape.compile_outputs([gamma_integrand_field(p), p.W])

    def batch(pts: np.ndarray) -> np.ndarray:
        (vals, w), err = _tape.eval_outputs(tape, pts)
        return np.where((err == 0) & (np.abs(w) >= WEIGHT_EPS), vals, np.nan)

    return _extremize_min(batch, p.dim, s)


# ---------------------------------------------------------------------------
# c: max of the two supremum branches
# ---------------------------------------------------------------------------


def estimate_c(p: ProblemSpec, rho: float, s: SearchConfig) -> BoundEstimate:
    """max(2 sup|grad W|, sup over {W != 0} of (LW/W - rho)_-), by box search.

    One search of the larger branch at each point; a point is skipped only
    when neither branch is defined there.  Diverging means c = +inf and the
    square-root commutation bound carries no information for this weight.
    Raises DomainError when no candidate point lies in W's domain, since c
    is a maximum of nonnegative terms.
    """
    if p.W.is_zero():
        return _exact(0.0, np.zeros(p.dim), s)
    grad_norm_sq = gamma_field(p, p.W, p.W)
    drift = _tape.compile_outputs([apply_L_symbolic(p, p.W) / p.W, p.W])

    def batch(pts: np.ndarray) -> np.ndarray:
        grad_branch = 2.0 * np.sqrt(np.maximum(_tape.eval_values(grad_norm_sq, pts)[0], 0.0))
        (lw, w), err = _tape.eval_outputs(drift, pts)
        in_domain = (err == 0) & (np.abs(w) >= WEIGHT_EPS)
        drift_branch = np.where(in_domain, np.maximum(rho - lw, 0.0), np.nan)
        return -np.fmax(grad_branch, drift_branch)  # negated: the extremizer minimizes

    est = _extremize_min(batch, p.dim, s)
    if est.witness is None:
        raise DomainError(
            f"estimate_c: no search point up to radius {s.radii_schedule[-1]:g} lies in the domain of W"
        )
    return replace(est, value=-est.value, trace=[-v for v in est.trace])


# ---------------------------------------------------------------------------
# Pointwise curvature-dimension check
# ---------------------------------------------------------------------------

_CD_TOL = 1e-8  # relative roundoff allowance of the pointwise check


def check_pointwise_cd(
    p: ProblemSpec,
    cases: Sequence[tuple[ScalarField, np.ndarray]],
    kappa: float,
) -> ViolationReport:
    """Check Gamma2W(f) >= kappa GammaW(f) at the points of each (f, points) case.

    A point is a violation when margin < -1e-8 * scale with
    scale = max(1, |Gamma2W|, |kappa GammaW|), so the threshold tracks the
    magnitude of the quantities instead of punishing large fields for
    roundoff.  A point where either field has a nonzero tape error code
    (overflow included) is counted as a domain error and skipped.  The worst
    point is the first one with the smallest margin, in case order.
    """
    parts = []
    for (_, points), (g2w_f, gw_f) in zip(cases, gamma2_w_sweep(p, (f for f, _ in cases))):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        (g2w, gw), err = _tape.eval_outputs(_tape.compile_outputs([g2w_f, gw_f]), pts)
        parts.append((pts, g2w, gw, err == 0))
    pts, g2w, gw, ok = (np.concatenate(a) for a in zip(*parts))
    pts, g2w, gw = pts[ok], g2w[ok], gw[ok]
    margin = g2w - kappa * gw
    scale = np.maximum(np.maximum(1.0, np.abs(g2w)), np.abs(kappa * gw))
    worst = int(np.argmin(margin)) if margin.size else None
    return ViolationReport(
        n_checked=ok.size,
        n_violations=int(np.sum(margin < -_CD_TOL * scale)),
        n_domain_errors=int(np.sum(~ok)),
        worst_margin=None if worst is None else float(margin[worst]),
        worst_point=None if worst is None else pts[worst].copy(),
    )

"""Semigroup evaluation for L = Laplacian - grad U . grad.

Three routes to Q_t f(x) = E[f(X_t) | X_0 = x] for dX = -grad U(X) ds
+ sqrt(2) dB:

* Euler-Maruyama Monte Carlo (:func:`estimate_Qt` and friends), the general
  workhorse, with counter-based noise so every estimate is reproducible and
  common-random-number differencing is exact.  For the Gaussian potential the
  drift is x, taken exactly rather than from the tape, and the blow-up guard
  tests the whole block globally before it tests rows;
* the closed Ornstein-Uhlenbeck law for the Gaussian potential
  (:func:`mehler_Qt`), evaluated by Gauss-Hermite quadrature or, for
  exponentials e^{a.x}, in closed form;
* the short-time expansion f + t Lf + (t^2/2) LLf (:func:`taylor_Qt`).

:func:`estimate_fk_term` computes the path-integral correction
2 int_0^t Q_s(W^2 (Q_{t-s} f)^2) ds that the weighted variance inequality
carries.  The inner square is estimated without bias by multiplying two
conditionally independent continuations of each path; per-path accumulation
across the time quadrature keeps the reported standard error honest despite
the shared outer trajectory.

Noise streams are labeled tuples hashed into independent Philox states, so
paths are reproducible per (seed, stream, step) regardless of chunking or
evaluation order.  A label names no start point, so every start point of a
call takes the same noise (common random numbers across x) and each noise
block is drawn once for all of them.  An ensemble depends on U, the MC
config, the stream and the time schedule, never on the test function, so the
``*_many`` estimators take a grid of start points and walk one stacked
ensemble, one block of paths per start, for a whole battery of fields and a
whole t-grid; their results carry a leading [x] index.  The single-field
estimators are those cores called with one start, one field and one t, and
every number is bit-identical to a call with one start.  An ensemble is one
state, k start blocks deep (at most 2 in the verify checks and criteria).

Every estimator takes one route from ensemble to estimate: :func:`_walk`
advances the ensemble in place and stops at each time, :func:`_endpoint_values`
evaluates one field where the ensemble stands and marks the usable paths
(inside the blow-up guard, no tape error code, so an overflowed value is a
failed path), and :func:`_estimate` drops the paths whose sample is not
finite (a replica product or a difference can overflow), checks the failure
fraction, pairs the antithetic samples and takes the mean and standard
error; its :class:`AggregatePathFailure` names the estimator, field, start
point and t.
The closed forms raise :class:`DomainError` where their values overflow.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from . import _tape
from .field_expr import Const, DomainError, Dot, Exp, Mul, Node, ProblemSpec, ScalarField
from .field_expr import _overflow_is_domain_error
from .gamma_calculus import _Builds

__all__ = [
    "MCConfig",
    "MCEstimate",
    "GradEstimate",
    "GaussianNoise",
    "AggregatePathFailure",
    "estimate_Qt",
    "estimate_Qt_many",
    "estimate_Qt_sq",
    "estimate_Qt_sq_many",
    "mehler_Qt",
    "mehler_grad_Qt",
    "taylor_Qt",
    "estimate_fk_term",
    "estimate_fk_term_many",
    "mehler_fk_term",
    "estimate_grad_Qt",
    "estimate_grad_Qt_many",
]

_BLOWUP_RADIUS = 1e8
_MAX_FAIL_FRACTION = 0.01
_SQ_STREAMS = ((7,), (8,))  # the two independent replicas of estimate_Qt_sq
_GRAD_H = 1e-3  # central-difference step of estimate_grad_Qt


class AggregatePathFailure(RuntimeError):
    """More than the tolerated fraction of paths failed."""


@dataclass(frozen=True)
class MCConfig:
    n_paths: int = 100_000
    dt: float = 1e-3
    seed: int = 0
    antithetic: bool = True

    def __post_init__(self):
        if self.n_paths < 2:
            raise ValueError("n_paths must be at least 2")
        if self.dt <= 0:
            raise ValueError("dt must be positive")


@dataclass(frozen=True)
class MCEstimate:
    mean: float
    stderr: float
    n_paths: int  # number of samples the stderr is based on (pairs when antithetic)
    dt: float


@dataclass(frozen=True)
class GradEstimate:
    grad: np.ndarray
    stderr: np.ndarray
    n_paths: int
    dt: float
    h: float


class GaussianNoise:
    """Counter-based standard normal generator.

    Each (label, shape) request derives an independent Philox state from
    (seed, label), so repeated requests are bit-identical and disjoint labels
    give independent streams.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)

    def normals(self, label: tuple[int, ...], shape, out=None) -> np.ndarray:
        """Normals of ``shape``, written into ``out`` (C-contiguous, of that
        shape) when it is given; the bits do not depend on where they go."""
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=tuple(int(v) for v in label))
        return np.random.Generator(np.random.Philox(ss)).standard_normal(shape, out=out)


# ---------------------------------------------------------------------------
# Euler-Maruyama core
# ---------------------------------------------------------------------------


def _split_steps(t: float, dt: float) -> tuple[int, float]:
    k = int(math.floor(t / dt + 1e-9))
    rem = t - k * dt
    if rem < 1e-12 * max(dt, 1.0):
        rem = 0.0
    return k, rem


def _block_paths(cfg: MCConfig) -> int:
    """Paths from one start point: ``cfg.n_paths``, rounded up to even for
    antithetic pairs."""
    return cfg.n_paths + (cfg.n_paths % 2 if cfg.antithetic else 0)


def _noise_block(noise, label: tuple[int, ...], xi: np.ndarray, antithetic: bool) -> np.ndarray:
    """Fill ``xi`` (m, n) with the step's noise; antithetic pairs negate the
    first half into the second, as ``concatenate([half, -half])`` would."""
    if not antithetic:
        return noise.normals(label, xi.shape, out=xi)
    h = xi.shape[0] // 2
    noise.normals(label, (h, xi.shape[1]), out=xi[:h])
    np.negative(xi[:h], out=xi[h:])
    return xi


def _em_step(
    p: ProblemSpec, X: np.ndarray, alive: np.ndarray, dt_s: float, xi: np.ndarray, new_x: np.ndarray | None = None
) -> None:
    """One Euler-Maruyama step of every live path, in place; failed paths
    freeze at their last finite state.

    ``X`` is one block of paths (m, n) with ``alive`` (m,), or a stack of
    blocks (k, m, n), one per start point, with ``alive`` (k, m).  The noise
    ``xi`` (m, n) is one draw that every block takes by broadcasting, so each
    block's numbers are those of a step of that block alone.

    For the Gaussian potential the drift is x, taken exactly: the tape's
    gradient of every form of |x|^2/2 + c that ``ProblemSpec`` recognises is
    x itself, with error code 0.  Otherwise the drift comes from one tape
    call over the whole stack, which gives a NaN gradient on a row with an
    error code, so that path fails the blow-up guard.  The guard tests the
    largest and smallest x_i of the whole stack first and the rows only when
    that trips, and while every path is alive the update is a plain copy.

    X - grads dt + sqrt(2 dt) xi is computed in that operation order with no
    temporary array: the step consumes the noise ``xi`` as scratch, and the
    new state goes into the tape's gradient array, or for the Gaussian
    potential into ``new_x`` (of X's shape) when it is given.
    """
    if p.gaussian_U:
        new_x = np.multiply(X, dt_s, out=new_x)
    else:
        new_x = _tape.eval_values_grads(p.U, X.reshape(-1, X.shape[-1]))[1].reshape(X.shape)
        np.multiply(new_x, dt_s, out=new_x)
    np.subtract(X, new_x, out=new_x)
    np.add(new_x, np.multiply(math.sqrt(2.0 * dt_s), xi, out=xi), out=new_x)
    if not (new_x.max() <= _BLOWUP_RADIUS and new_x.min() >= -_BLOWUP_RADIUS):  # a NaN anywhere trips it
        alive &= np.max(np.abs(new_x), axis=-1) <= _BLOWUP_RADIUS  # NaN rows blow up too
    if alive.all():
        X[...] = new_x
    else:
        X[alive] = new_x[alive]


def _starts(x_grid, cfg: MCConfig) -> np.ndarray:
    """The stacked start state (k, m, n) of k start points (k, n): each
    point repeated over a block of :func:`_block_paths` paths."""
    xs = np.asarray(x_grid, dtype=float)
    return np.repeat(xs[:, None, :], _block_paths(cfg), axis=1)


def _walk(p: ProblemSpec, X: np.ndarray, t_grid, cfg: MCConfig, noise, stream: tuple[int, ...]):
    """Advance the stacked ensemble ``X`` (k, m, n), one block of paths per
    start point, in place through the times of ``t_grid`` in increasing
    order, and yield (index into ``t_grid``, state, alive mask (k, m)) at
    each.  Each (stream, step) noise block is drawn once and drives every
    block, so block a is bit for bit a walk from start a alone.

    The times share their full steps, and a full-step time yields ``X``
    itself: read it before the walk resumes.  A time that ends on a short
    step takes it under the label a walk to that time alone would use, from
    a copy of the full-step state unless it is the last time.  The noise and
    drift buffers live only while the walk steps, so a suspended walk holds
    its state, and a short-step copy until it reaches its next time.
    """
    alive = np.ones(X.shape[:2], dtype=bool)
    order = sorted(range(len(t_grid)), key=lambda i: t_grid[i])
    done = 0
    for idx in order:
        k, rem = _split_steps(t_grid[idx], cfg.dt)
        xi = np.empty(X.shape[1:])  # the noise of every step to this time, shared by the blocks
        new_x = np.empty(X.shape) if p.gaussian_U else None
        for step in range(done, k):
            _em_step(p, X, alive, cfg.dt, _noise_block(noise, (*stream, step), xi, cfg.antithetic), new_x)
        done = k
        Xt, alive_t = (X, alive) if rem == 0.0 or idx == order[-1] else (X.copy(), alive.copy())
        if rem > 0.0:
            _em_step(p, Xt, alive_t, rem, _noise_block(noise, (*stream, k), xi, cfg.antithetic), new_x)
        del xi, new_x
        yield idx, Xt, alive_t


def _endpoint_values(f: ScalarField, X: np.ndarray, alive: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One field on one state of a :func:`_walk`, in one tape call over
    every block: values and usable-path masks, both of ``alive``'s shape
    [start, path].  A path is usable when it stayed inside the blow-up guard
    and the field has no tape error code at its endpoint, so an overflowed
    value counts as a failed path."""
    vals, err = _tape.eval_values(f, X.reshape(-1, X.shape[-1]))
    return vals.reshape(alive.shape), alive & (err.reshape(alive.shape) == 0)


def _estimate(values: np.ndarray, ok: np.ndarray, cfg: MCConfig, case: tuple) -> MCEstimate:
    """Mean and standard error of one ensemble's path values over its usable
    paths.  A path whose value is not finite (a product or difference of
    finite values can overflow) is not usable.  Antithetic pairs are averaged
    into one sample and count only when both halves are usable.  When the
    mean is finite but the squared deviations overflow, the standard error is
    taken on the samples divided by their largest magnitude and scaled back.
    More than 1% unusable paths, or a mean or standard error that still
    overflows, raises :class:`AggregatePathFailure` naming ``case``, the
    tuple (estimator, field index, field, start x, t)."""
    ok = ok & np.isfinite(values)
    frac = 1.0 - float(np.mean(ok))
    if frac > _MAX_FAIL_FRACTION:
        raise AggregatePathFailure(f"{_case_text(case)}: {100 * frac:.1f}% of paths failed")
    with np.errstate(over="ignore", invalid="ignore"):
        if cfg.antithetic:
            half = values.shape[0] // 2
            both = ok[:half] & ok[half:]
            samples = 0.5 * (values[:half][both] + values[half:][both])
        else:
            samples = values[ok]
        n = samples.shape[0]
        mean = float(np.mean(samples)) if n else math.nan
        stderr = float(np.std(samples, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
        if math.isfinite(mean) and not math.isfinite(stderr):  # the squared deviations overflowed
            scale = float(np.max(np.abs(samples)))
            stderr = scale * float(np.std(samples / scale, ddof=1) / math.sqrt(n))
    if not (math.isfinite(mean) and math.isfinite(stderr)):
        raise AggregatePathFailure(
            f"{_case_text(case)}: {100 * frac:.1f}% of paths failed, and the rest give"
            f" mean {mean} with standard error {stderr}, not finite"
        )
    return MCEstimate(mean=mean, stderr=stderr, n_paths=n, dt=cfg.dt)


def _case_text(case: tuple) -> str:
    what, i, f, x, t = case
    return f"{what} of field {i} ({f.to_text()}) from x = {np.asarray(x).tolist()} at t = {t:g}"


def _replica_products(
    p: ProblemSpec,
    fields,
    x_grid,
    t_grid,
    cfg: MCConfig,
    streams,
    what: str,
) -> list[list[list[MCEstimate]]]:
    """[x][field][t] estimates of E[prod_k f(X^k_t)] with one independent
    ensemble X^k per stream, so the mean is (Q_t f(x))^len(streams).  The
    ensembles walk side by side, once for all start points, fields and
    times, and each field is read where they stand; t = 0 is exact."""
    xs = np.asarray(x_grid, dtype=float)
    out = [[[MCEstimate(math.prod([f.value(x)] * len(streams)), 0.0, 0, cfg.dt) if t == 0.0 else None
             for t in t_grid] for f in fields] for x in xs]

    def read(j, states):
        """Every field at t_grid[j] from the replicas' (X, alive); the
        values, masks and products die on return, before the walks step on."""
        for i, f in enumerate(fields):
            replicas = [_endpoint_values(f, X, alive) for X, alive in states]
            with np.errstate(over="ignore"):  # an overflowed product is a failed path
                prod = reduce(operator.mul, (vals for vals, _ in replicas))
            ok = reduce(operator.and_, (good for _, good in replicas))
            for a, x in enumerate(xs):
                out[a][i][j] = _estimate(prod[a], ok[a], cfg, (what, i, f, x, t_grid[j]))

    noise = GaussianNoise(cfg.seed)
    walks = [_walk(p, _starts(xs, cfg), t_grid, cfg, noise, s) for s in streams]
    for states in zip(*walks):
        if t_grid[states[0][0]] != 0.0:
            read(states[0][0], [state[1:] for state in states])
    return out


def estimate_Qt_many(
    p: ProblemSpec,
    fields,
    x_grid,
    t_grid,
    cfg: MCConfig,
    stream: tuple[int, ...] = (0,),
) -> list[list[list[MCEstimate]]]:
    """Monte Carlo Q_t f(x) for every start point, field and t from one
    stacked ensemble; entry [a][i][j] is fields[i] from x_grid[a] at
    t_grid[j]."""
    return _replica_products(p, fields, x_grid, t_grid, cfg, (stream,), "estimate_Qt")


def estimate_Qt(
    p: ProblemSpec,
    f: ScalarField,
    x,
    t: float,
    cfg: MCConfig,
    stream: tuple[int, ...] = (0,),
) -> MCEstimate:
    """Monte Carlo Q_t f(x) with standard error."""
    return estimate_Qt_many(p, [f], [x], [t], cfg, stream)[0][0][0]


def estimate_Qt_sq_many(
    p: ProblemSpec,
    fields,
    x_grid,
    t_grid,
    cfg: MCConfig,
) -> list[list[list[MCEstimate]]]:
    """:func:`estimate_Qt_sq` for every start point, field and t; entry
    [a][i][j] is fields[i] from x_grid[a] at t_grid[j]."""
    return _replica_products(p, fields, x_grid, t_grid, cfg, _SQ_STREAMS, "estimate_Qt_sq")


def estimate_Qt_sq(
    p: ProblemSpec,
    f: ScalarField,
    x,
    t: float,
    cfg: MCConfig,
) -> MCEstimate:
    """Unbiased (Q_t f(x))^2 via the product of two independent replicas.

    Squaring a single ensemble mean would be biased upward by its variance;
    f(Z) f(Z') with Z, Z' independent has expectation exactly (Q_t f)^2.
    """
    return estimate_Qt_sq_many(p, [f], [x], [t], cfg)[0][0][0]


# ---------------------------------------------------------------------------
# Closed-form Ornstein-Uhlenbeck (Gaussian potential) oracles
# ---------------------------------------------------------------------------


def _exp_family(root: Node) -> tuple[float, np.ndarray] | None:
    """Match c * exp(a . x) (or a constant, as a = 0); returns (c, a)."""
    if isinstance(root, Const):
        return root.c, None
    if isinstance(root, Exp) and isinstance(root.a, Dot):
        return 1.0, np.asarray(root.a.coeffs, dtype=float)
    if isinstance(root, Mul):
        left, right = root.a, root.b
        if isinstance(left, Const) and isinstance(right, Exp) and isinstance(right.a, Dot):
            return left.c, np.asarray(right.a.coeffs, dtype=float)
        if isinstance(right, Const) and isinstance(left, Exp) and isinstance(left.a, Dot):
            return right.c, np.asarray(left.a.coeffs, dtype=float)
    return None


def gaussian_exp_moment(mean: np.ndarray, var: float, b: np.ndarray) -> float:
    """E[exp(b . Y)] for Y ~ N(mean, var I)."""
    return math.exp(float(b @ mean) + 0.5 * var * float(b @ b))


def _ou_law(x: np.ndarray, t: float) -> tuple[np.ndarray, float]:
    decay = math.exp(-t)
    return decay * x, 1.0 - decay * decay


@lru_cache(maxsize=None)
def _hermite_rule(quad_order: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The tensor Gauss-Hermite rule of one order in n dimensions, built
    once: nodes (quad_order^n, n) and weights for the weight function
    pi^{-n/2} e^{-|z|^2}; read-only arrays."""
    z, w = np.polynomial.hermite.hermgauss(quad_order)
    nodes = np.stack([g.ravel() for g in np.meshgrid(*([z] * n), indexing="ij")], axis=-1)
    weights = np.ones(nodes.shape[0])
    for g in np.meshgrid(*([w] * n), indexing="ij"):
        weights *= g.ravel() / math.sqrt(math.pi)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _hermite_points(mean: np.ndarray, var: float, quad_order: int) -> tuple[np.ndarray, np.ndarray]:
    """Tensor Gauss-Hermite nodes/weights for N(mean, var I) expectation:
    the cached rule of :func:`_hermite_rule`, shifted to ``mean`` and scaled
    by sqrt(2 var).  The weights are the cached read-only array."""
    nodes, weights = _hermite_rule(quad_order, mean.shape[0])
    return mean[None, :] + math.sqrt(2.0 * var) * nodes, weights


def _require_gaussian(p: ProblemSpec, who: str) -> None:
    if not p.gaussian_U:
        raise ValueError(f"{who} needs the Gaussian potential |x|^2/2 + const")


def mehler_Qt(p: ProblemSpec, f: ScalarField, x, t: float, quad_order: int = 40) -> float:
    """Q_t f(x) for Gaussian U: exact for c e^{a.x}, Gauss-Hermite otherwise."""
    _require_gaussian(p, "mehler_Qt")
    x = np.asarray(x, dtype=float)
    if t == 0.0:
        return f.value(x)
    mean, var = _ou_law(x, t)
    fam = _exp_family(f.root)
    if fam is not None:
        c, a = fam
        with _overflow_is_domain_error(x):
            return c if a is None else c * gaussian_exp_moment(mean, var, a)
    pts, weights = _hermite_points(mean, var, quad_order)
    return float(weights @ _strict_values(f, pts))


def mehler_grad_Qt(p: ProblemSpec, f: ScalarField, x, t: float) -> np.ndarray:
    """grad Q_t f(x) = e^{-t} Q_t(grad f)(x) for Gaussian U."""
    _require_gaussian(p, "mehler_grad_Qt")
    decay = math.exp(-t)
    return np.array([decay * mehler_Qt(p, f.diff(i), x, t) for i in range(p.dim)])


def _strict_values(f: ScalarField, pts: np.ndarray) -> np.ndarray:
    """Tape values of ``f`` at the rows of ``pts``; DomainError at the first bad row."""
    vals, err = _tape.eval_values(f, pts)
    if np.any(err != 0):
        bad = int(np.argmax(err != 0))
        raise DomainError(f"{_tape.err_message(int(err[bad]))} at {pts[bad]!r}")
    return vals


def taylor_Qt(p: ProblemSpec, f: ScalarField, x, t: float) -> float:
    """Short-time expansion f + t Lf + (t^2/2) L(Lf) at x."""
    b = _Builds(p)
    lf = b.apply_L(f)
    llf = b.apply_L(lf)
    x = np.asarray(x, dtype=float)
    return f.value(x) + t * lf.value(x) + 0.5 * t * t * llf.value(x)


# ---------------------------------------------------------------------------
# Feynman-Kac-type correction term
# ---------------------------------------------------------------------------


def _simpson_weights(t: float, nodes: int) -> tuple[np.ndarray, np.ndarray]:
    if nodes < 3 or nodes % 2 == 0:
        raise ValueError("Simpson rule needs an odd number of nodes >= 3")
    s = np.linspace(0.0, t, nodes)
    w = np.ones(nodes)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    w *= (t / (nodes - 1)) / 3.0
    return s, w


def estimate_fk_term_many(
    p: ProblemSpec,
    fields,
    x_grid,
    t: float,
    time_nodes: int,
    cfg: MCConfig,
) -> list[list[MCEstimate]]:
    """:func:`estimate_fk_term` for every start point and field; entry
    [a][i] is fields[i] from x_grid[a].  The outer trajectories and the
    continuations are simulated once for all start points and shared; only
    the endpoint evaluations are per field, one field at a time, and each
    field's per-path totals accumulate in place."""
    xs = np.asarray(x_grid, dtype=float)
    if t == 0.0 or p.W.is_zero():
        return [[MCEstimate(mean=0.0, stderr=0.0, n_paths=0, dt=cfg.dt) for _ in fields] for _ in xs]
    s_nodes, weights = _simpson_weights(t, time_nodes)
    noise = GaussianNoise(cfg.seed)
    w_sq = p.W * p.W
    acc = np.zeros((len(fields), len(xs), _block_paths(cfg)))  # [field, start, path]
    ok = np.ones(acc.shape, dtype=bool)

    def add_node(j, Y, alive):
        """Node j: two independent continuations Z, Z' of the outer
        endpoints Y to time t, each from a copy of Y; each field's samples
        2 w_j W^2(Y) f(Z) f(Z') join its totals.  The continuations are
        freed on return, before the outer walk steps on."""
        w2, w2_ok = _endpoint_values(w_sq, Y, alive)
        [(_, *z)] = _walk(p, Y.copy(), (t - s_nodes[j],), cfg, noise, (4, j, 0))
        [(_, *zp)] = _walk(p, Y.copy(), (t - s_nodes[j],), cfg, noise, (4, j, 1))
        for i, f in enumerate(fields):
            fz, z_ok = _endpoint_values(f, *z)
            fzp, zp_ok = _endpoint_values(f, *zp)
            node_ok = w2_ok & z_ok & zp_ok
            ok[i] &= node_ok
            with np.errstate(over="ignore", invalid="ignore"):  # an overflowed total is a failed path
                acc[i] += np.where(node_ok, 2.0 * weights[j] * w2 * fz * fzp, 0.0)

    Y, s_prev = _starts(xs, cfg), 0.0  # walked in place; node 0 is a zero-length segment, with no steps
    for j, s_j in enumerate(s_nodes):
        [(_, _, alive)] = _walk(p, Y, (s_j - s_prev,), cfg, noise, (3, j))
        s_prev = s_j
        add_node(j, Y, alive)
    return [
        [_estimate(acc[i, a], ok[i, a], cfg, ("estimate_fk_term", i, f, x, t)) for i, f in enumerate(fields)]
        for a, x in enumerate(xs)
    ]


def estimate_fk_term(
    p: ProblemSpec,
    f: ScalarField,
    x,
    t: float,
    time_nodes: int,
    cfg: MCConfig,
) -> MCEstimate:
    """Monte Carlo 2 int_0^t Q_s(W^2 (Q_{t-s} f)^2)(x) ds.

    One ensemble carries the outer trajectory; at each Simpson node every
    path spawns two independent continuations Z, Z' to time t, and the
    unbiased sample for the inner square is f(Z) f(Z').  Totals are kept per
    path so the standard error reflects the correlation across nodes.
    """
    return estimate_fk_term_many(p, [f], [x], t, time_nodes, cfg)[0][0]


def mehler_fk_term(p: ProblemSpec, f: ScalarField, x, t: float) -> float:
    """Deterministic 2 int_0^t Q_s(W^2 (Q_{t-s} f)^2)(x) ds for Gaussian U.

    The inner semigroup is closed-form for c e^{a.x}, on 201 Simpson nodes
    with order-40 Gauss-Hermite in the outer integral; general f falls back
    to nested Gauss-Hermite of order 20 on 41 nodes.
    """
    _require_gaussian(p, "mehler_fk_term")
    x = np.asarray(x, dtype=float)
    if t == 0.0 or p.W.is_zero():
        return 0.0
    fam = _exp_family(f.root)
    s_nodes, quad_order = (201, 40) if fam is not None else (41, 20)
    grid, weights = _simpson_weights(t, s_nodes)
    w_sq = p.W * p.W
    total = 0.0
    for s_j, w_j in zip(grid, weights):
        mean, var = _ou_law(x, s_j)
        pts, gh_w = _hermite_points(mean, var, quad_order)
        w2_vals = _strict_values(w_sq, pts)
        with _overflow_is_domain_error(x):
            inner = _qt_values(p, f, fam, pts, t - s_j, quad_order)
        total += 2.0 * w_j * float(gh_w @ (w2_vals * inner * inner))
    return total


def _qt_values(
    p: ProblemSpec,
    f: ScalarField,
    fam: tuple[float, np.ndarray] | None,
    pts: np.ndarray,
    u: float,
    quad_order: int,
) -> np.ndarray:
    """Q_u f at each row of pts (Gaussian U), vectorized."""
    if fam is not None:
        c, a = fam
        if a is None:
            return np.full(pts.shape[0], c)
        decay = math.exp(-u)
        var = 1.0 - decay * decay
        return c * math.exp(0.5 * var * float(a @ a)) * np.exp(pts @ (decay * a))
    if u == 0.0:
        return _strict_values(f, pts)
    decay = math.exp(-u)
    var = 1.0 - decay * decay
    zero = np.zeros(p.dim)
    inner_pts, inner_w = _hermite_points(zero, var, quad_order)
    n_out, n_in = pts.shape[0], inner_pts.shape[0]
    combined = (decay * pts)[:, None, :] + inner_pts[None, :, :]
    vals = _strict_values(f, combined.reshape(n_out * n_in, p.dim))
    return vals.reshape(n_out, n_in) @ inner_w


# ---------------------------------------------------------------------------
# Gradient of Q_t f
# ---------------------------------------------------------------------------


def estimate_grad_Qt_many(
    p: ProblemSpec,
    fields,
    x_grid,
    t_grid,
    cfg: MCConfig,
) -> list[list[list[GradEstimate]]]:
    """:func:`estimate_grad_Qt` for every start point, field and t; entry
    [a][i][j] is fields[i] from x_grid[a] at t_grid[j].  The 2 dim k shifted
    starts x +- h e_d of the k start points are one ensemble on stream (1,),
    walked once for all fields and times.  Each direction counts its own
    usable pairs; ``n_paths`` is the smallest count."""
    xs = np.asarray(x_grid, dtype=float)
    k, n = xs.shape
    shifts = _GRAD_H * np.eye(n)
    # [sign, x, direction] flattened: every x + h e_d, then every x - h e_d
    starts = np.concatenate([(xs[:, None, :] + shifts).reshape(-1, n), (xs[:, None, :] - shifts).reshape(-1, n)])
    out = [[[None] * len(t_grid) for _ in fields] for _ in xs]

    def read(j, X, alive):
        """Every field at t_grid[j]; the values, masks and differences die
        on return, before the walk steps on."""
        for i, f in enumerate(fields):
            vals, good = _endpoint_values(f, X, alive)
            vals, good = vals.reshape(2, k, n, -1), good.reshape(2, k, n, -1)
            with np.errstate(over="ignore"):  # an overflowed difference is a failed path
                diffs = (vals[0] - vals[1]) / (2.0 * _GRAD_H)
            ok = good[0] & good[1]
            for a, x in enumerate(xs):
                case = ("estimate_grad_Qt", i, f, x, t_grid[j])
                per_dir = [_estimate(diffs[a, d], ok[a, d], cfg, case) for d in range(n)]
                out[a][i][j] = GradEstimate(
                    grad=np.array([est.mean for est in per_dir]), stderr=np.array([est.stderr for est in per_dir]),
                    n_paths=min(est.n_paths for est in per_dir), dt=cfg.dt, h=_GRAD_H,
                )

    for j, X, alive in _walk(p, _starts(starts, cfg), t_grid, cfg, GaussianNoise(cfg.seed), (1,)):
        read(j, X, alive)
    return out


def estimate_grad_Qt(
    p: ProblemSpec,
    f: ScalarField,
    x,
    t: float,
    cfg: MCConfig,
) -> GradEstimate:
    """Monte Carlo grad Q_t f(x) by central differences with common random
    numbers (the same noise stream drives both x +- h e_i, h = 1e-3, so the
    difference cancels almost all Monte Carlo variance).  It samples for every U; the
    closed form for the Gaussian potential is :func:`mehler_grad_Qt`."""
    return estimate_grad_Qt_many(p, [f], [x], [t], cfg)[0][0][0]

import math
from dataclasses import replace

import numpy as np
import pytest

from gammaw import _tape
from gammaw.field_expr import (
    DomainError,
    ProblemSpec,
    _is_gaussian_potential,
    const_field,
    dot_field,
    parse_field,
)
from gammaw.presets import gaussian_potential, gaussian_problem, make_problem, sqrt1sq_weight
from gammaw.verifier import battery
from gammaw.semigroup_mc import (
    _BLOWUP_RADIUS,
    AggregatePathFailure,
    GaussianNoise,
    MCConfig,
    MCEstimate,
    _em_step,
    _endpoint_values,
    _estimate,
    _simulate_grid,
    estimate_fk_term,
    estimate_fk_term_many,
    estimate_grad_Qt,
    estimate_grad_Qt_many,
    estimate_Qt,
    estimate_Qt_many,
    estimate_Qt_sq,
    estimate_Qt_sq_many,
    gaussian_exp_moment,
    mehler_fk_term,
    mehler_grad_Qt,
    mehler_Qt,
    taylor_Qt,
)


def test_mc_config_validation():
    with pytest.raises(ValueError):
        MCConfig(n_paths=1)
    with pytest.raises(ValueError):
        MCConfig(dt=0.0)


def test_t_zero_is_exact(p2, small_mc):
    f = parse_field("exp(0.3*x0) + x1", 2)
    x = [0.7, -0.2]
    est = estimate_Qt(p2, f, x, 0.0, small_mc)
    assert est.mean == f.value(x)
    assert est.stderr == 0.0
    sq = estimate_Qt_sq(p2, f, x, 0.0, small_mc)
    assert sq.mean == f.value(x) ** 2
    assert mehler_Qt(p2, f, x, 0.0) == f.value(x)


def test_t_zero_reports_no_samples(p2, p2_noweight, small_mc):
    f = parse_field("exp(0.3*x0) + x1", 2)
    x = [0.7, -0.2]
    assert estimate_Qt(p2, f, x, 0.0, small_mc).n_paths == 0
    assert estimate_Qt_sq(p2, f, x, 0.0, small_mc).n_paths == 0
    assert estimate_fk_term(p2, f, x, 0.0, 5, small_mc).n_paths == 0
    assert estimate_fk_term(p2_noweight, f, x, 0.5, 5, small_mc).n_paths == 0
    assert estimate_Qt(p2, f, x, 0.1, small_mc).n_paths == small_mc.n_paths // 2


class ZeroNoise:
    """Drift-only noise: every block is zeros."""

    def normals(self, label, shape, out=None):
        if out is None:
            return np.zeros(shape)
        out.fill(0.0)
        return out


def _drift_path(p, x0, t, cfg):
    """The endpoint and alive flag of one path from x0 with no noise."""
    start = np.asarray(x0, dtype=float)[None, None, :]
    [(X, alive)] = _simulate_grid(p, start, (t,), replace(cfg, antithetic=False), ZeroNoise(), (0,))
    return X[0, 0], alive[0, 0]


def test_zero_noise_follows_drift(p2):
    # gaussian drift -x discretizes to x (1 - dt)^k exactly
    cfg = MCConfig(n_paths=2, dt=0.1, seed=0, antithetic=False)
    x0 = np.array([2.0, -1.0])
    end, alive = _drift_path(p2, x0, 0.5, cfg)
    assert alive
    assert np.allclose(end, x0 * (1.0 - 0.1) ** 5, rtol=0, atol=1e-15)


def test_zero_noise_dt_halving(p2):
    # deterministic Euler error against e^{-t} shrinks linearly in dt
    x0 = np.array([1.0, 0.0])
    errs = []
    for dt in (0.02, 0.01, 0.005):
        cfg = MCConfig(n_paths=2, dt=dt, seed=0, antithetic=False)
        end, alive = _drift_path(p2, x0, 1.0, cfg)
        assert alive
        errs.append(abs(end[0] - math.exp(-1.0)))
    assert 1.7 < errs[0] / errs[1] < 2.3
    assert 1.7 < errs[1] / errs[2] < 2.3


def test_conservativity_exact(p2, small_mc):
    est = estimate_Qt(p2, const_field(1.0, 2), [0.3, 0.4], 0.7, small_mc)
    assert est.mean == 1.0
    assert est.stderr == 0.0


def test_antithetic_cancels_linear_part(p2):
    # linear dynamics + linear f: pair averages are deterministic
    cfg = MCConfig(n_paths=1000, dt=0.01, seed=5, antithetic=True)
    est = estimate_Qt(p2, parse_field("x0", 2), [1.0, 0.0], 0.5, cfg)
    assert est.stderr < 1e-14
    assert est.mean == pytest.approx((1.0 - 0.01) ** 50, abs=1e-12)


def test_determinism_bit_identical(p2, small_mc):
    f = parse_field("exp(0.2*x0)*x1 + 1", 2)
    a = estimate_Qt(p2, f, [0.5, 0.5], 0.4, small_mc)
    b = estimate_Qt(p2, f, [0.5, 0.5], 0.4, small_mc)
    assert a.mean == b.mean
    assert a.stderr == b.stderr
    c = estimate_Qt(p2, f, [0.5, 0.5], 0.4, small_mc, stream=(9,))
    assert c.mean != a.mean


def test_noise_streams_are_stable():
    noise = GaussianNoise(42)
    a = noise.normals((1, 2), (4, 3))
    b = noise.normals((1, 2), (4, 3))
    assert np.array_equal(a, b)
    c = noise.normals((1, 3), (4, 3))
    assert not np.array_equal(a, c)


def test_mehler_first_two_moments(p2):
    x = np.array([0.8, -0.3])
    t = 0.6
    d = math.exp(-t)
    assert mehler_Qt(p2, parse_field("x0", 2), x, t) == pytest.approx(d * x[0], abs=1e-12)
    want = d * d * x[0] ** 2 + (1 - d * d)
    assert mehler_Qt(p2, parse_field("x0^2", 2), x, t) == pytest.approx(want, abs=1e-12)


def test_mehler_exponential_closed_form(p2):
    a = np.array([0.4, -0.2])
    f = dot_field(a).exp()
    x = np.array([1.0, 2.0])
    t = 0.3
    d = math.exp(-t)
    want = math.exp(float(a @ x) * d + 0.5 * (1 - d * d) * float(a @ a))
    assert mehler_Qt(p2, f, x, t) == pytest.approx(want, rel=1e-14)


def test_mehler_semigroup_composition(p2):
    # Q_s Q_t = Q_{s+t} on the exponential family
    a = np.array([0.5, 0.1])
    x = np.array([-0.4, 0.9])
    s, t = 0.25, 0.4
    d = math.exp(-t)
    c = math.exp(0.5 * (1 - d * d) * float(a @ a))
    qt_f = c * dot_field(a * d).exp()
    lhs = mehler_Qt(p2, qt_f, x, s)
    rhs = mehler_Qt(p2, dot_field(a).exp(), x, s + t)
    assert lhs == pytest.approx(rhs, rel=1e-13)


def test_mehler_requires_gaussian():
    p = make_problem(2, "normsq(x)", "sqrt1sq")
    with pytest.raises(ValueError):
        mehler_Qt(p, parse_field("x0", 2), [0.0, 0.0], 0.1)


def test_mehler_domain_errors_name_the_bad_node(p2):
    x = [0.3, -0.2]
    with pytest.raises(DomainError, match="log outside its domain at array"):
        mehler_Qt(p2, parse_field("log(x0)", 2), x, 0.5)
    with pytest.raises(DomainError, match="sqrt outside its domain at array"):
        mehler_fk_term(p2, parse_field("sqrt(x0)", 2), x, 0.5, s_nodes=3, quad_order=5)


def test_mehler_overflow_is_a_domain_error(p2):
    # the closed forms for c e^{a.x} overflow in math.exp
    f = dot_field([800.0, 0.0], 2).exp()
    with pytest.raises(DomainError, match="overflow at"):
        mehler_Qt(p2, f, [1.0, 0.5], 0.05)
    with pytest.raises(DomainError, match="overflow at"):
        mehler_grad_Qt(p2, f, [1.0, 0.5], 0.05)
    with pytest.raises(DomainError, match="overflow at"):
        mehler_fk_term(p2, f, [1.0, 0.5], 0.05, s_nodes=3)


def test_mehler_grad_matches_finite_difference(p2):
    f = parse_field("x0^2 * exp(0.1*x1)", 2)
    x = np.array([0.6, -0.8])
    t = 0.5
    g = mehler_grad_Qt(p2, f, x, t)
    h = 1e-6
    for i in range(2):
        e = np.zeros(2)
        e[i] = h
        fd = (mehler_Qt(p2, f, x + e, t) - mehler_Qt(p2, f, x - e, t)) / (2 * h)
        assert g[i] == pytest.approx(fd, rel=1e-6, abs=1e-8)


def test_mc_matches_mehler(p2):
    cfg = MCConfig(n_paths=8000, dt=5e-3, seed=7)
    for src in ("exp(0.3*x0)", "x0^2 + x1"):
        f = parse_field(src, 2)
        x = [0.5, -0.5]
        t = 0.5
        est = estimate_Qt(p2, f, x, t, cfg)
        ref = mehler_Qt(p2, f, x, t)
        assert abs(est.mean - ref) < 4 * est.stderr + 5e-3


def test_qt_sq_is_unbiased(p2):
    cfg = MCConfig(n_paths=8000, dt=5e-3, seed=13)
    f = parse_field("x0 + exp(0.2*x1)", 2)
    x = [0.4, 0.1]
    t = 0.4
    est = estimate_Qt_sq(p2, f, x, t, cfg)
    ref = mehler_Qt(p2, f, x, t) ** 2
    assert abs(est.mean - ref) < 4 * est.stderr + 5e-3
    # squaring a single-replica mean would be biased upward by Var(f)/n visibly
    assert est.stderr > 0


def test_taylor_short_time(p2):
    f = parse_field("x0^2*x1 + x1", 2)
    x = [0.7, 0.9]
    for t in (1e-3, 1e-2):
        assert taylor_Qt(p2, f, x, t) == pytest.approx(
            mehler_Qt(p2, f, x, t), rel=1e-5, abs=10 * t**3
        )


def test_fk_term_trivial_cases(p2, p2_noweight, small_mc):
    f = parse_field("x0", 2)
    est = estimate_fk_term(p2, f, [0.0, 0.0], 0.0, 5, small_mc)
    assert est.mean == 0.0 and est.stderr == 0.0
    est = estimate_fk_term(p2_noweight, f, [0.0, 0.0], 0.5, 5, small_mc)
    assert est.mean == 0.0 and est.stderr == 0.0
    assert mehler_fk_term(p2_noweight, f, [0.0, 0.0], 0.5) == 0.0


def test_fk_term_needs_odd_nodes(p2, small_mc):
    with pytest.raises(ValueError):
        estimate_fk_term(p2, parse_field("x0", 2), [0.0, 0.0], 0.5, 4, small_mc)


def test_fk_term_against_mehler(p2):
    cfg = MCConfig(n_paths=6000, dt=5e-3, seed=17)
    f = dot_field([0.5, 0.0]).exp()
    x = [0.2, -0.1]
    t = 0.3
    est = estimate_fk_term(p2, f, x, t, 9, cfg)
    ref = mehler_fk_term(p2, f, x, t)
    assert abs(est.mean - ref) < 4 * est.stderr + 2e-2 * abs(ref)


@pytest.mark.parametrize("label, want", [("poly_quad", 6.48697), ("bump", 0.214493)])
def test_fk_term_nested_quadrature_against_sampling(p2, label, want):
    # outside the exponential family mehler_fk_term takes Q_{t-s} f by nested
    # Gauss-Hermite; the sampled term carries an Euler-Maruyama bias, O(dt),
    # and the error of its three Simpson nodes
    f = dict(battery(2))[label]
    x, t = [0.5, -0.3], 0.3
    ref = mehler_fk_term(p2, f, x, t)
    assert ref == pytest.approx(want, rel=1e-5)
    est = estimate_fk_term(p2, f, x, t, 3, MCConfig(n_paths=40_000, dt=2e-3, seed=5))
    assert abs(est.mean - ref) < 4 * est.stderr + 1e-2 * abs(ref)


def test_fk_term_const_f_closed_form(p2):
    # f = 1: the integrand is 2 Q_s(W^2) with W^2 = 1 + |x|^2, so from x = 0
    # the integral is 2 int_0^t (1 + 2(1-e^{-2s})) ds = 6t - 4t... computed below
    t = 0.25
    want = 0.0
    nodes = np.linspace(0.0, t, 2001)
    vals = 2.0 * (1.0 + 2.0 * (1.0 - np.exp(-2.0 * nodes)))
    want = float(np.trapezoid(vals, nodes))
    got = mehler_fk_term(p2, const_field(1.0, 2), np.zeros(2), t)
    assert got == pytest.approx(want, rel=1e-6)


def test_grad_qt_samples_for_gaussian_U(p2, small_mc):
    # estimate_grad_Qt samples for every U; it agrees with the closed form
    f = parse_field("exp(0.2*x0)", 2)
    est = estimate_grad_Qt(p2, f, [0.3, 0.0], 0.4, small_mc)
    assert est.h == 1e-3 and est.n_paths > 0 and est.stderr[0] > 0.0
    ref = mehler_grad_Qt(p2, f, [0.3, 0.0], 0.4)
    assert np.all(np.abs(est.grad - ref) <= 4.0 * est.stderr + 1e-3 * np.abs(ref))


def test_grad_qt_crn_constant_field():
    # common random numbers cancel exactly for constant f
    p = make_problem(2, "normsq(x)/2 + 0.01*x0^4", "sqrt1sq")
    cfg = MCConfig(n_paths=500, dt=0.01, seed=3)
    est = estimate_grad_Qt(p, const_field(3.0, 2), [0.5, 0.5], 0.2, cfg)
    assert np.array_equal(est.grad, np.zeros(2))
    assert np.array_equal(est.stderr, np.zeros(2))


def test_blow_up_detection():
    p = make_problem(1, "-x0^4", "zero")
    cfg = MCConfig(n_paths=50, dt=0.1, seed=0, antithetic=False)
    assert not _drift_path(p, [3.0], 2.0, cfg)[1]
    with pytest.raises(AggregatePathFailure):
        estimate_Qt(p, parse_field("x0", 1), [3.0], 2.0, cfg)
    # the drift at (0, 800) overflows: the tape gives a NaN gradient, and a NaN state blows up
    p = make_problem(2, "x0*exp(x1)", "zero")
    assert not _drift_path(p, [0.0, 800.0], 0.1, cfg)[1]


def test_estimate_stderr_survives_squared_overflow():
    # deviations near 1e199 square past the float range; the mean does not
    values = 1e200 * (1.0 + 0.1 * np.random.default_rng(4).standard_normal(1000))
    cfg = MCConfig(n_paths=1000, antithetic=False)
    case = ("estimate_Qt", 0, const_field(1.0, 1), [0.0], 0.1)
    est = _estimate(values, np.ones(1000, dtype=bool), cfg, case)
    scale = np.max(np.abs(values))
    want = scale * np.std(values / scale, ddof=1) / math.sqrt(1000)
    assert math.isfinite(est.stderr)
    assert est.stderr == pytest.approx(want, rel=1e-12)
    assert est.mean == np.mean(values)


@pytest.mark.parametrize("estimator", [
    lambda p, fs, x, cfg: estimate_Qt_many(p, fs, x, [0.1], cfg),
    lambda p, fs, x, cfg: estimate_Qt_sq_many(p, fs, x, [0.1], cfg),
    lambda p, fs, x, cfg: estimate_grad_Qt_many(p, fs, x, [0.1], cfg),
    lambda p, fs, x, cfg: estimate_fk_term_many(p, fs, x, 0.1, 3, cfg),
], ids=["Qt", "Qt_sq", "grad_Qt", "fk_term"])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowed_values_are_failed_paths(estimator):
    # exp(800 x0) overflows on about half the paths from x0 = 1; the
    # products and sums of the others overflow quietly and fail too
    p = gaussian_problem(1)
    cfg = MCConfig(n_paths=200, dt=0.05, seed=5)
    with pytest.raises(AggregatePathFailure, match=(
        r"^estimate_\w+ of field 1 \(exp\(800\.0\*x0\)\) from x = \[1\.0\] at t = 0\.1: "
        r"[0-9.]+% of paths failed"
    )):
        estimator(p, [parse_field("x0", 1), parse_field("exp(800*x0)", 1)], [[1.0]], cfg)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowed_products_are_failed_paths():
    # each replica value exp(400 x0) is finite, but the product of two
    # overflows on most paths; before, the estimate came out as mean=inf
    p = gaussian_problem(2)
    f, x, t = parse_field("exp(400*x0)", 2), np.array([1.0, 0.0]), 0.02
    cfg = MCConfig(n_paths=200, dt=0.01)
    for stream in ((7,), (8,)):
        [(X, alive)] = _simulate_grid(p, [x], (t,), cfg, GaussianNoise(cfg.seed), stream)
        vals, ok = _endpoint_values(f, X, alive)
        assert ok.all() and np.isfinite(vals).all()
    with pytest.raises(AggregatePathFailure, match="of paths failed"):
        estimate_Qt_sq(p, f, x, t, cfg)


def _gaussian_potential_forms(dim):
    """Every form of |x|^2/2 + c that ``ProblemSpec`` accepts as Gaussian."""
    forms = []
    for half in ("normsq(x)/2", "0.5*normsq(x)", "normsq(x)*0.5"):
        forms.append(half)
        for c in ("1.5", "0.25"):
            forms += [f"{half} + {c}", f"{half} - {c}", f"{c} + {half}", f"-{c} + {half}"]
    return [parse_field(src, dim) for src in forms] + [gaussian_potential(dim)]


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_tape_drift_of_gaussian_potential_is_x(dim):
    # the EM step takes x as the Gaussian drift; the tape gives exactly x.
    # `==`, not a bitwise check: the 0.5* forms turn -0.0 into +0.0
    rng = np.random.default_rng(dim)
    X = rng.normal(size=(64, dim)) * rng.choice([1.0, 1e-3, 1e8], size=(64, 1))
    X[::5, 0] = 0.0
    X[1::5, -1] = -0.0
    X[2, :] = 1e8
    X[3, :] = -1e8
    for U in _gaussian_potential_forms(dim):
        assert _is_gaussian_potential(U.root), U.to_text()
        _, grads, err = _tape.eval_values_grads(U, X)
        assert np.all(err == 0)
        assert np.all(grads == X), U.to_text()
    # c - |x|^2/2 has drift -x and is not Gaussian
    assert not _is_gaussian_potential(parse_field("1.5 - normsq(x)/2", dim).root)
    assert not ProblemSpec(dim, parse_field("1.5 - normsq(x)/2", dim), sqrt1sq_weight(dim)).gaussian_U


@pytest.mark.parametrize("u_spec, gaussian", [
    ("gaussian", True),
    ("normsq(x)/2", True),
    ("0.5*normsq(x) + 3", True),
    ("1.5 - normsq(x)/2", False),
    ("normsq(x)/2 + 0.25*x0^2", False),
])
def test_gaussian_U_is_read_off_U(u_spec, gaussian):
    assert make_problem(2, u_spec, "sqrt1sq").gaussian_U is gaussian


def test_gaussian_U_is_not_an_argument():
    with pytest.raises(TypeError):
        ProblemSpec(2, gaussian_potential(2), sqrt1sq_weight(2), gaussian_U=False)


def _em_step_reference(p, X, alive, dt_s, xi):
    # the plain step: tape drift, row-wise guard and masked copy, no shortcut
    _, grads, err = _tape.eval_values_grads(p.U, X)
    bad_grad = alive & (err != 0)
    alive &= ~bad_grad
    new_x = X - grads * dt_s + math.sqrt(2.0 * dt_s) * xi
    blown = alive & ~(np.max(np.abs(new_x), axis=1) <= _BLOWUP_RADIUS)
    alive &= ~blown
    X[alive] = new_x[alive]


@pytest.mark.parametrize(
    "u_spec, gaussian",
    [
        ("gaussian", True),
        ("normsq(x)/2", True),
        ("x0^2/2 + x1^2/2", False),  # |x|^2/2 spelt so that the tape gives the drift
        ("x0^4/4 + x1^2 + x0*x1/3", False),
    ],
)
@pytest.mark.parametrize("case", ["all_alive", "some_dead", "one_crosses", "nan_noise"])
def test_em_step_matches_reference_step(u_spec, gaussian, case):
    p = make_problem(2, u_spec, "sqrt1sq")
    assert p.gaussian_U == gaussian
    rng = np.random.default_rng(7)
    X = rng.normal(size=(40, 2))
    X[5] = [0.0, -0.0]
    alive = np.ones(40, dtype=bool)
    xi = rng.normal(size=(40, 2))
    expected_alive = alive.copy()
    if case == "some_dead":
        alive[[3, 17, 30]] = expected_alive[[3, 17, 30]] = False
    elif case == "one_crosses":
        X[11] = [0.9999 * _BLOWUP_RADIUS, 1.0]
        xi[11, 0] = 1e12
        expected_alive[11] = False
    elif case == "nan_noise":
        xi[23, 1] = np.nan
        expected_alive[23] = False
    for dt in (0.01, 0.003):
        X_new, alive_new = X.copy(), alive.copy()
        X_ref, alive_ref = X.copy(), alive.copy()
        _em_step(p, X_new, alive_new, dt, xi.copy())  # the step consumes its noise
        _em_step_reference(p, X_ref, alive_ref, dt, xi)
        assert np.array_equal(alive_new, alive_ref)
        assert np.array_equal(X_new, X_ref)
        assert np.array_equal(alive_new, expected_alive)
        assert np.array_equal(X_new[~alive_new], X[~alive_new])
        assert not np.any(X_new[alive_new] == X[alive_new])


def test_em_step_matches_reference_on_tape_error():
    # log(x0) has no value at x0 < 0: that path dies with a tape error code
    p = make_problem(2, "log(x0) + normsq(x)/2", "zero")
    rng = np.random.default_rng(8)
    X = rng.uniform(0.5, 2.0, size=(30, 2))
    X[9, 0] = -0.5
    alive = np.ones(30, dtype=bool)
    xi = rng.normal(size=(30, 2))
    X_new, alive_new = X.copy(), alive.copy()
    X_ref, alive_ref = X.copy(), alive.copy()
    _em_step(p, X_new, alive_new, 0.01, xi.copy())
    _em_step_reference(p, X_ref, alive_ref, 0.01, xi)
    assert np.array_equal(alive_new, alive_ref)
    assert np.array_equal(X_new, X_ref)
    assert np.flatnonzero(~alive_new).tolist() == [9]
    assert np.array_equal(X_new[9], X[9])


def test_gaussian_exp_moment():
    mean = np.array([1.0, -2.0])
    b = np.array([0.3, 0.4])
    want = math.exp(0.3 - 0.8 + 0.5 * 0.7 * 0.25)
    assert gaussian_exp_moment(mean, 0.7, b) == pytest.approx(want, rel=1e-15)


# ---------------------------------------------------------------------------
# Shared ensembles: a multi-field, multi-t call must reproduce the
# single-field, single-t estimates bit for bit
# ---------------------------------------------------------------------------

NON_GAUSSIAN_U = "normsq(x)/2 + 0.25*x0^2"


def _same_grad(a, b):
    assert np.array_equal(a.grad, b.grad)
    assert np.array_equal(a.stderr, b.stderr)
    assert (a.n_paths, a.dt, a.h) == (b.n_paths, b.dt, b.h)


@pytest.mark.parametrize("gaussian", [True, False])
def test_many_fields_match_single_field_calls(gaussian):
    p = gaussian_problem(2) if gaussian else make_problem(2, NON_GAUSSIAN_U, "sqrt1sq")
    cfg = MCConfig(n_paths=400, dt=0.02, seed=31)
    fields = [f for _, f in battery(2)]
    assert len(fields) == 5
    x, t = np.array([0.5, -0.3]), 0.1
    qt = estimate_Qt_many(p, fields, [x], [t], cfg, stream=(5,))[0]
    qt_sq = estimate_Qt_sq_many(p, fields, [x], [t], cfg)[0]
    fk = estimate_fk_term_many(p, fields, [x], t, 5, cfg)[0]
    grad = estimate_grad_Qt_many(p, fields, [x], [t], cfg)[0]
    for i, f in enumerate(fields):
        assert qt[i][0] == estimate_Qt(p, f, x, t, cfg, stream=(5,))
        assert qt_sq[i][0] == estimate_Qt_sq(p, f, x, t, cfg)
        assert fk[i] == estimate_fk_term(p, f, x, t, 5, cfg)
        _same_grad(grad[i][0], estimate_grad_Qt(p, f, x, t, cfg))
    assert grad[0][0].h > 0.0 and grad[0][0].n_paths > 0


@pytest.mark.parametrize("t_grid", [(0.05, 0.1), (0.1, 0.0, 0.05, 0.1)])
def test_t_grid_matches_single_t_calls(t_grid):
    # dt = 0.02: t = 0.05 ends on a short step resumed from the full-step
    # state at t = 0.04, and t = 0.1 continues from that full-step state
    p = make_problem(2, NON_GAUSSIAN_U, "sqrt1sq")
    cfg = MCConfig(n_paths=400, dt=0.02, seed=32)
    fields = [f for _, f in battery(2)[:2]]
    x = np.array([1.0, 0.5])
    qt = estimate_Qt_many(p, fields, [x], t_grid, cfg)[0]
    qt_sq = estimate_Qt_sq_many(p, fields, [x], t_grid, cfg)[0]
    grad = estimate_grad_Qt_many(p, fields, [x], t_grid, cfg)[0]
    for i, f in enumerate(fields):
        for j, t in enumerate(t_grid):
            assert qt[i][j] == estimate_Qt(p, f, x, t, cfg)
            assert qt_sq[i][j] == estimate_Qt_sq(p, f, x, t, cfg)
            _same_grad(grad[i][j], estimate_grad_Qt(p, f, x, t, cfg))


# ---------------------------------------------------------------------------
# Stacked start points: one call over a grid of starts must reproduce the
# one-start calls bit for bit, block by block
# ---------------------------------------------------------------------------

_CORES = {
    "Qt": lambda p, fs, xs, t_grid, cfg: estimate_Qt_many(p, fs, xs, t_grid, cfg, stream=(5,)),
    "Qt_sq": estimate_Qt_sq_many,
    "grad_Qt": estimate_grad_Qt_many,
    # the memory term takes one t: [x][field] becomes [x][field][t]
    "fk_term": lambda p, fs, xs, t_grid, cfg: [
        [list(by_t) for by_t in zip(*by_x)]
        for by_x in zip(*[estimate_fk_term_many(p, fs, xs, t, 3, cfg) for t in t_grid])
    ],
}


def _same_estimate(a, b):
    if isinstance(a, MCEstimate):
        assert a == b
    else:
        _same_grad(a, b)


@pytest.mark.parametrize("antithetic", [True, False])
@pytest.mark.parametrize("gaussian", [True, False])
@pytest.mark.parametrize("core", sorted(_CORES))
def test_start_grid_matches_single_start_calls(core, gaussian, antithetic):
    # odd n_paths; dt = 0.02, so t = 0.05 ends on a short step, and t = 0 is exact
    p = gaussian_problem(2) if gaussian else make_problem(2, NON_GAUSSIAN_U, "sqrt1sq")
    cfg = MCConfig(n_paths=301, dt=0.02, seed=33, antithetic=antithetic)
    fields = [f for _, f in battery(2)[1:4]]
    starts = np.array([[0.0, 0.0], [1.0, 0.5], [-0.4, 0.9]])
    t_grid = (0.05, 0.0, 0.1)
    stacked = _CORES[core](p, fields, starts, t_grid, cfg)
    assert len(stacked) == len(starts)
    for x, by_x in zip(starts, stacked):
        [alone] = _CORES[core](p, fields, [x], t_grid, cfg)
        for row, want_row in zip(by_x, alone):
            assert len(row) == len(want_row) == len(t_grid)
            for est, want in zip(row, want_row):
                _same_estimate(est, want)
    assert stacked[1][0][2].n_paths > 0


@pytest.mark.parametrize("u_spec, field, bad, others", [
    ("-x0^4", "x0", 3.0, (-0.25, 0.1)),  # the paths from 3 blow up
    ("gaussian", "exp(800*x0)", 1.0, (-1.0, -0.75)),  # the values from 1 overflow
])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_failure_stays_in_its_start_block(u_spec, field, bad, others):
    p = make_problem(1, u_spec, "sqrt1sq")
    cfg = MCConfig(n_paths=51, dt=0.01, seed=6)
    f = parse_field(field, 1)
    starts = np.array([[others[0]], [bad], [others[1]]])
    noise = GaussianNoise(cfg.seed)
    [(X, alive)] = _simulate_grid(p, starts, (0.1,), cfg, noise, (0,))
    vals, ok = _endpoint_values(f, X, alive)
    assert not ok[1].all()
    for a in (0, 2):  # the other blocks are those of a call from their start alone
        [(X_a, alive_a)] = _simulate_grid(p, starts[a : a + 1], (0.1,), cfg, noise, (0,))
        vals_a, ok_a = _endpoint_values(f, X_a, alive_a)
        assert ok_a.all()
        assert np.array_equal(X[a], X_a[0]) and np.array_equal(alive[a], alive_a[0])
        assert np.array_equal(vals[a], vals_a[0]) and np.array_equal(ok[a], ok_a[0])
    for core in _CORES.values():
        with pytest.raises(AggregatePathFailure, match=rf" from x = \[{bad}\] at t = 0\.1: "):
            core(p, [parse_field("1 + x0*x0", 1), f], starts, (0.1,), cfg)


@pytest.mark.parametrize("u_spec", ["gaussian", "x0^4/4 + x1^2 + x0*x1/3"])
def test_em_step_on_a_stack_matches_reference_steps(u_spec):
    # three start blocks, one shared noise block: each block steps as alone
    p = make_problem(2, u_spec, "sqrt1sq")
    rng = np.random.default_rng(9)
    X = rng.normal(size=(3, 40, 2))
    alive = np.ones((3, 40), dtype=bool)
    alive[1, [3, 17]] = False
    X[2, 11] = [0.9999 * _BLOWUP_RADIUS, 1.0]
    xi = rng.normal(size=(40, 2))
    xi[11, 0] = 1e8  # only block 2's path 11 crosses the guard
    for dt in (0.01, 0.003):
        X_new, alive_new = X.copy(), alive.copy()
        _em_step(p, X_new, alive_new, dt, xi.copy())
        for a in range(3):
            X_ref, alive_ref = X[a].copy(), alive[a].copy()
            _em_step_reference(p, X_ref, alive_ref, dt, xi)
            assert np.array_equal(alive_new[a], alive_ref)
            assert np.array_equal(X_new[a], X_ref)
        assert not alive_new[2, 11] and alive_new[0, 11] and alive_new[1, 11]
        assert np.array_equal(X_new[~alive_new], X[~alive_new])


def test_grad_n_paths_is_the_smallest_direction_count():
    # log(x0 + c) near its domain edge: the starts x -+ h e_0 lose more paths
    # than x -+ h e_1, whose x0 coordinates follow the paths from x itself
    p = gaussian_problem(2)
    c, x, t, h = 0.34, np.array([0.0, 0.5]), 0.01, 1e-3
    cfg = MCConfig(n_paths=40_000, dt=t, seed=34)
    est = estimate_grad_Qt(p, parse_field(f"log(x0 + {c})", 2), x, t, cfg)
    # one Euler-Maruyama step of x0 with the Gaussian drift, antithetic pairs
    half = cfg.n_paths // 2
    xi = GaussianNoise(cfg.seed).normals((1, 0), (half, 2))[:, 0]
    xi = np.concatenate([xi, -xi])

    def usable(x0):
        return x0 - x0 * t + math.sqrt(2.0 * t) * xi + c > 0.0

    def pairs(ok):
        return int(np.sum(ok[:half] & ok[half:]))

    along_x0 = pairs(usable(x[0] + h) & usable(x[0] - h))
    along_x1 = pairs(usable(x[0]))
    assert along_x0 < along_x1 < half
    assert est.n_paths == along_x0

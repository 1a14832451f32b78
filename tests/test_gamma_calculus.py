import gc
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gammaw import _tape, acceptance, curvature_bounds, field_expr, gamma_calculus
from gammaw.field_expr import DomainError, coord_field, const_field, dot_field, parse_field
from gammaw.gamma_calculus import (
    WeightVanishesError,
    apply_L,
    apply_L_symbolic,
    gamma,
    gamma2,
    gamma2_w,
    gamma2_w_definitional,
    gamma2_w_field,
    gamma2_w_sweep,
    gamma_field,
    gamma_integrand,
    gamma_integrand_field,
    gamma_w,
    gamma_w_field,
    sqrt_defect,
    sqrt_gamma_w_field,
)
from gammaw.presets import gaussian_problem, make_problem, pq_problem
from gammaw.verifier import random_problem, random_smooth_field


def test_apply_L_ou_generator(p2):
    # L(x0^2) = 2 - 2 x0^2 for the Gaussian potential
    f = parse_field("x0^2", 2)
    assert apply_L(p2, f, [1.5, 0.3]) == pytest.approx(2.0 - 2.0 * 1.5**2)
    lf = apply_L_symbolic(p2, f)
    assert lf.value([1.5, 0.3]) == pytest.approx(2.0 - 2.0 * 1.5**2)


def test_gamma_is_gradient_dot(p2):
    f = parse_field("x0*x1", 2)
    g = parse_field("x0 + x1^2", 2)
    x = [0.7, -0.4]
    want = np.array([-0.4, 0.7]) @ np.array([1.0, -0.8])
    assert gamma(p2, f, g, x) == pytest.approx(want)


def test_gamma_w_adds_weighted_product(p2):
    f = coord_field(0, 2)
    assert gamma_w(p2, f, f, [1.0, 0.0]) == pytest.approx(3.0)
    # cross term: gamma_w(f, g) = grad f . grad g + W^2 f g
    g = coord_field(1, 2)
    x = [1.0, 2.0]
    assert gamma_w(p2, f, g, x) == pytest.approx((1.0 + 1.0 + 4.0) * 1.0 * 2.0)


def test_gamma2_w_exponential_at_origin(p2):
    f = dot_field([1.0, 0.0]).exp()
    assert gamma2_w(p2, f, [0.0, 0.0]) == pytest.approx(5.0)
    assert gamma2_w_definitional(p2, f, [0.0, 0.0]) == pytest.approx(5.0)


def test_zero_weight_collapses_to_classical(p2_noweight):
    p = p2_noweight
    f = parse_field("exp(0.3*x0) + x1^2", 2)
    for x in ([0.0, 0.0], [1.0, -2.0], [0.5, 0.25]):
        assert gamma_w(p, f, f, x) == pytest.approx(gamma(p, f, f, x))
        assert gamma2_w(p, f, x) == pytest.approx(gamma2(p, f, x))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_leibniz_identity(seed):
    # Gamma(f,g) = (L(fg) - f Lg - g Lf) / 2 pointwise
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, 4))
    p = random_problem(rng, dim)
    f = random_smooth_field(rng, dim)
    g = random_smooth_field(rng, dim)
    x = rng.uniform(-2, 2, size=dim)
    try:
        lhs = 0.5 * (
            apply_L(p, f * g, x) - f.value(x) * apply_L(p, g, x) - g.value(x) * apply_L(p, f, x)
        )
        rhs = gamma(p, f, g, x)
    except DomainError:
        return
    scale = max(abs(lhs), abs(rhs), 1.0)
    assert abs(lhs - rhs) <= 1e-9 * scale


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_gamma2_w_matches_definitional(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, 4))
    p = random_problem(rng, dim)
    f = random_smooth_field(rng, dim)
    x = rng.uniform(-2, 2, size=dim)
    try:
        a = gamma2_w(p, f, x)
        b = gamma2_w_definitional(p, f, x)
    except DomainError:
        return
    assert abs(a - b) <= 1e-8 * max(abs(a), abs(b), 1.0)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_gamma2_w_field_matches_both_oracles(seed):
    # the tape batch of the field against the jet expansion and the definition
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, 4))
    p = random_problem(rng, dim)
    f = random_smooth_field(rng, dim)
    pts = rng.uniform(-2, 2, size=(8, dim))
    vals, err = _tape.eval_values(gamma2_w_field(p, f), pts)
    for x, v, e in zip(pts, vals, err):
        try:
            a = gamma2_w(p, f, x)
        except DomainError:
            continue
        b = gamma2_w_definitional(p, f, x)
        assert e == 0
        assert abs(v - a) <= 1e-8 * max(abs(v), abs(a), 1.0)
        assert abs(v - b) <= 1e-8 * max(abs(v), abs(b), 1.0)


def test_gamma_fields_match_pointwise(p2, rng):
    f = parse_field("exp(0.2*x0)*x1", 2)
    g = parse_field("x0 + 0.5*x1^2", 2)
    gf = gamma_field(p2, f, g)
    gwf = gamma_w_field(p2, f, g)
    for _ in range(25):
        x = rng.uniform(-2, 2, size=2)
        assert gf.value(x) == pytest.approx(gamma(p2, f, g, x), rel=1e-12, abs=1e-12)
        assert gwf.value(x) == pytest.approx(gamma_w(p2, f, g, x), rel=1e-12, abs=1e-12)


def test_sqrt_gamma_w_field(p2):
    f = parse_field("x0^2 + 1", 2)
    h = sqrt_gamma_w_field(p2, f)
    x = np.array([1.0, 2.0])
    want = 2.0 + math.sqrt(6.0) * 2.0  # |grad f| + W f
    assert h.value(x) == pytest.approx(want)


def test_curvature_integrand_values():
    p2 = gaussian_problem(2)
    assert gamma_integrand(p2, [0.0, 0.0]) == pytest.approx(2.0)
    p1 = gaussian_problem(1)
    # at |x|^2 = 1: lap W/W = 1/2 - 1/4, 3|W'|^2/W^2 = 3/4, U'W'/W = 1/2
    assert gamma_integrand(p1, [1.0]) == pytest.approx(-1.0)
    u = 0.5
    assert gamma_integrand(p1, [1.0]) == pytest.approx(4 * u * u + (1 - 3) * u - 1)


def test_curvature_integrand_pq_spot():
    p = pq_problem(2.0, 1.0, 1)
    assert gamma_integrand(p, [0.0]) == pytest.approx(1.0)
    # q=1 weight is sqrt1sq, so the integrand matches the gaussian problem's
    pg = gaussian_problem(1)
    for r in (0.5, 1.0, 2.0):
        assert gamma_integrand(p, [r]) == pytest.approx(gamma_integrand(pg, [r]))


def test_curvature_integrand_scale_invariant_in_w(p2):
    scaled = make_problem(2, "gaussian", "7*sqrt(1+normsq(x))")
    for x in ([0.0, 0.0], [1.0, 1.0], [0.3, -2.0]):
        assert gamma_integrand(scaled, x) == pytest.approx(gamma_integrand(p2, x))


def test_curvature_integrand_field_matches(p2, rng):
    field = gamma_integrand_field(p2)
    for _ in range(30):
        x = rng.uniform(-4, 4, size=2)
        assert field.value(x) == pytest.approx(gamma_integrand(p2, x), rel=1e-10, abs=1e-10)


def test_vanishing_weight_rejected(p2_noweight):
    with pytest.raises(WeightVanishesError):
        gamma_integrand(p2_noweight, [1.0, 1.0])
    with pytest.raises(DomainError):
        gamma_integrand_field(p2_noweight)
    # a weight that crosses zero at a specific point
    p = make_problem(1, "gaussian", "x0")
    with pytest.raises(WeightVanishesError):
        gamma_integrand(p, [0.0])
    # lap W = 0, 3|W'|^2/W^2 = 3, U'W'/W = 1 at x0 = 1
    assert gamma_integrand(p, [1.0]) == pytest.approx(-4.0)


def test_sqrt_defect_constant_g():
    for dim in (2, 3):
        p = gaussian_problem(dim)
        lhs, bound = sqrt_defect(p, parse_field("1", dim), np.zeros(dim), rho=1.0, c=2.0)
        assert lhs == pytest.approx(dim - 1.0)
        assert bound == pytest.approx(-2.0)


def test_sqrt_defect_zero_weight(p2_noweight):
    g = parse_field("x0^2 + x1^2", 2)
    x = [1.0, 1.0]
    lhs, bound = sqrt_defect(p2_noweight, g, x, rho=1.0, c=0.5)
    assert lhs == 0.0
    assert bound == pytest.approx(-0.5 * math.hypot(2.0, 2.0))


def test_iterated_L_stays_symbolic(p2):
    f = parse_field("x0^2 * x1", 2)
    llf = apply_L_symbolic(p2, apply_L_symbolic(p2, f))
    x = np.array([0.9, -1.1])
    h = 1e-4
    # compare L(Lf) against a finite-difference Laplacian-drift of Lf
    lf = apply_L_symbolic(p2, f)
    lap = sum(
        (lf.value(x + h * e) - 2 * lf.value(x) + lf.value(x - h * e)) / h**2
        for e in np.eye(2)
    )
    drift = x @ lf.jet(x).gradient
    assert llf.value(x) == pytest.approx(lap - drift, rel=1e-5, abs=1e-4)


def test_definitional_route_takes_no_jet(monkeypatch):
    # AC3's 200 draws, the definitional side with jets switched off: it still
    # meets the jet expansion as AC3 reports it, so AC3's two sides share no
    # evaluator; the definition is one field, so one .value walks its DAG
    def no_jet(self, x):
        raise AssertionError("the definitional route took a jet")

    value, calls = field_expr.ScalarField.value, []

    def counted_value(self, x):
        calls.append(x)
        return value(self, x)

    want = acceptance.ac3(()).lines[0]
    rng = np.random.default_rng(3)
    worst, count, skipped = 0.0, 0, 0
    while count < 200:
        dim = int(rng.integers(1, 4))
        p = random_problem(rng, dim)
        f = random_smooth_field(rng, dim)
        x = rng.uniform(-2.0, 2.0, dim)
        try:
            a = gamma2_w(p, f, x)
            with monkeypatch.context() as m:
                m.setattr(field_expr.ScalarField, "jet", no_jet)
                m.setattr(field_expr.ScalarField, "value", counted_value)
                calls.clear()
                b = gamma2_w_definitional(p, f, x)
        except DomainError:
            skipped += 1
            continue
        assert len(calls) == 1
        worst = max(worst, abs(a - b) / max(abs(a), abs(b), 1.0))
        count += 1
    assert worst <= 1e-8
    assert want == f"200 instances, worst relative gap {worst:.3e} (tol 1e-08), {skipped} resampled"


def test_gamma2_w_overflow_is_a_domain_error():
    p = make_problem(2, "x0*exp(x1)", "zero")
    with pytest.raises(DomainError):
        gamma2_w(p, parse_field("x0 + x1", 2), [0.0, 800.0])


# ---------------------------------------------------------------------------
# Shared derivative memos: the builders against a fresh memo per .diff
# ---------------------------------------------------------------------------


def _ref_gamma(p, f, g):
    out = const_field(0.0, p.dim)
    for i in range(p.dim):
        out = out + f.diff(i) * g.diff(i)
    return out


def _ref_apply_L(p, f):
    out = const_field(0.0, p.dim)
    for i in range(p.dim):
        fi = f.diff(i)
        out = out + fi.diff(i) - p.U.diff(i) * fi
    return out


def _ref_gamma2_w(p, f):
    n, w, zero = p.dim, p.W, const_field(0.0, p.dim)
    df = [f.diff(i) for i in range(n)]
    hess_sq = sum((df[i].diff(j) ** 2 for i in range(n) for j in range(n)), zero)
    hess_u = sum((_ref_gamma(p, f, p.U.diff(j)) * df[j] for j in range(n)), zero)
    lap_w = sum((w.diff(i).diff(i) for i in range(n)), zero)
    weight_term = f * f * (w * lap_w + _ref_gamma(p, w, w) - w * _ref_gamma(p, w, p.U))
    return (
        hess_sq + hess_u
        + weight_term
        + w * w * _ref_gamma(p, f, f)
        + 4.0 * f * w * _ref_gamma(p, w, f)
    )


def _ref_integrand(p):
    lw = _ref_apply_L(p, p.W) + _ref_gamma(p, p.U, p.W)
    return lw / p.W - 3.0 * _ref_gamma(p, p.W, p.W) / (p.W * p.W) - _ref_gamma(p, p.U, p.W) / p.W


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_builders_return_the_reference_root(seed):
    # hash-consing makes a shared memo build the very nodes a fresh one builds
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, 4))
    p = random_problem(rng, dim)
    f = random_smooth_field(rng, dim)
    g = random_smooth_field(rng, dim)
    try:
        ref_integrand = _ref_integrand(p)
    except DomainError:
        ref_integrand = None
    assert gamma_field(p, f, g).root is _ref_gamma(p, f, g).root
    assert gamma_w_field(p, f, g).root is (_ref_gamma(p, f, g) + p.W * p.W * f * g).root
    assert gamma2_w_field(p, f).root is _ref_gamma2_w(p, f).root
    assert apply_L_symbolic(p, f).root is _ref_apply_L(p, f).root
    assert sqrt_gamma_w_field(p, f).root is (_ref_gamma(p, f, f).sqrt() + p.W * f).root
    if ref_integrand is not None:
        assert gamma_integrand_field(p).root is ref_integrand.root
    b = gamma_calculus._Builds(p)
    assert b.apply_L(b.gamma_w(f, f)).root is _ref_apply_L(p, _ref_gamma(p, f, f) + p.W * p.W * f * f).root
    # the sweep's fields, built as it builds them, and its values bit for bit
    sweep = gamma_calculus._Builds(p)
    pts = rng.uniform(-2.0, 2.0, (5, dim))
    for h, (values, err) in zip((f, g), gamma2_w_sweep(p, [(f, pts), (g, pts)])):
        fb = sweep.fresh()
        g2w, gw = fb.gamma2_w(h), fb.gamma_w(h, h)
        assert g2w.root is _ref_gamma2_w(p, h).root
        assert gw.root is (_ref_gamma(p, h, h) + p.W * p.W * h * h).root
        ref_values, ref_err = _tape.eval_outputs(_tape.compile_outputs([g2w, gw]), pts)
        assert (values.tobytes(), err.tobytes()) == (ref_values.tobytes(), ref_err.tobytes())


def _count_diffs(monkeypatch):
    """Record every (node, coordinate) that _diff_node computes, not looks up."""
    inner = field_expr._diff_node
    computed = []

    def counting(n, i, memo):
        if n not in memo:
            computed.append((n, i))
        return inner(n, i, memo)

    monkeypatch.setattr(field_expr, "_diff_node", counting)
    monkeypatch.setattr(gamma_calculus, "_diff_node", counting)
    return computed


def test_gamma2_w_field_differentiates_each_node_once(monkeypatch):
    rng = np.random.default_rng(7)
    p = random_problem(rng, 2)
    f = random_smooth_field(rng, 2)
    computed = _count_diffs(monkeypatch)
    field = gamma2_w_field(p, f)
    assert computed and len(computed) == len(set(computed))
    assert field.root is _ref_gamma2_w(p, f).root
    assert len(computed) > len(set(computed))  # the reference redoes them


def test_pointwise_cd_differentiates_u_and_w_once_per_sweep(monkeypatch, p2):
    rng = np.random.default_rng(8)
    cases = [(random_smooth_field(rng, 2), rng.uniform(-1, 1, (4, 2))) for _ in range(5)]
    computed = _count_diffs(monkeypatch)
    curvature_bounds.check_pointwise_cd(p2, cases, -1.0)
    for root in (p2.U.root, p2.W.root):
        assert sorted(i for n, i in computed if n is root) == [0, 1]


def test_gamma2_w_build_leaves_no_nodes_behind():
    rng = np.random.default_rng(9)
    p = random_problem(rng, 3)
    f = random_smooth_field(rng, 3)
    gc.collect()
    before = len(field_expr._NODES)
    field = gamma2_w_field(p, f)
    assert len(field_expr._NODES) > before
    del field
    gc.collect()
    assert len(field_expr._NODES) == before

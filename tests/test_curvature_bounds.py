import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from gammaw import _tape, curvature_bounds
from gammaw.curvature_bounds import (
    BoundEstimate,
    SearchConfig,
    _diverging,
    _extremize_min,
    check_pointwise_cd,
    estimate_c,
    estimate_gamma,
    estimate_rho,
)
from gammaw.field_expr import DomainError, ProblemSpec, parse_field
from gammaw.gamma_calculus import WEIGHT_EPS, gamma2_w, gamma_integrand, gamma_w, sqrt_defect
from gammaw.presets import gaussian_problem, make_problem, pq_problem
from gammaw.verifier import random_smooth_field


def test_search_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(radii_schedule=(10.0, 10.0, 100.0))
    with pytest.raises(ValueError):
        SearchConfig(tol=0.0)
    with pytest.raises(ValueError):
        SearchConfig(radii_schedule=(-5.0, 10.0))
    with pytest.raises(ValueError):
        SearchConfig(radii_schedule=(0.0, 10.0))
    with pytest.raises(ValueError):
        SearchConfig(radii_schedule=())


def test_diverging_rule():
    assert _diverging([-1.0, -3.0, -6.0], tol=1e-6)
    assert not _diverging([-1.0, -3.0], tol=1e-6)  # too short
    assert not _diverging([-1.0, -3.0, -4.5], tol=1e-6)  # last drop smaller
    assert not _diverging([-1.0, -1.0, -2.0], tol=1e-6)  # a flat step
    assert not _diverging([-1.0, -3.0, -math.inf], tol=1e-6)  # non-finite entry
    assert not _diverging([5.0, 4.0, 2.0], tol=10.0)  # drops below tol


def test_rho_gaussian_exact(fast_search):
    est = estimate_rho(gaussian_problem(2), fast_search)
    assert est.value == 1.0
    assert not est.diverging
    assert np.allclose(est.witness, 0.0)


def test_rho_nonconvex_potential(fast_search):
    # U = |x|^2/2 + cos(x0) not expressible; use quartic double well instead
    p = make_problem(1, "x0^4/4 - x0^2/2", "sqrt1sq")
    est = estimate_rho(p, fast_search)
    # U'' = 3 x0^2 - 1, global min -1 at 0
    assert est.value == pytest.approx(-1.0, abs=1e-6)
    assert not est.diverging
    assert abs(est.witness[0]) < 1e-3


def test_rho_diverging(fast_search):
    # U = -x0^4: Hessian unbounded below as the box grows
    p = make_problem(1, "-x0^4", "sqrt1sq")
    est = estimate_rho(p, fast_search)
    assert est.diverging
    assert est.value == -math.inf
    assert len(est.trace) == 3
    assert est.trace[0] > est.trace[1] > est.trace[2]


def test_rho_search_is_pinned():
    # the Hessian entries are the outputs of one tape; its search value is
    # pinned bit for bit to the one that evaluated each entry on its own tape
    est = estimate_rho(pq_problem(1.5, 1, 2), SearchConfig(seed=1))
    assert est.value.hex() == "0x1.b3acca6455147p-7"


@pytest.mark.parametrize(
    "dim,expected,witness_r2",
    [(1, -1.25, 3.0), (2, -1.0625, 7.0), (3, -1.0, None)],
)
def test_gamma_sqrt_weight_constants(fast_search, dim, expected, witness_r2):
    est = estimate_gamma(gaussian_problem(dim), fast_search)
    assert not est.diverging
    assert est.value == pytest.approx(expected, abs=1e-6)
    if witness_r2 is not None:
        assert float(est.witness @ est.witness) == pytest.approx(witness_r2, abs=1e-3)
    # witness reproduces the reported infimum
    assert gamma_integrand(gaussian_problem(dim), est.witness) == pytest.approx(
        est.value, abs=1e-9
    )


def test_gamma_zero_weight(fast_search, p2_noweight):
    est = estimate_gamma(p2_noweight, fast_search)
    assert est.value == math.inf
    assert not est.diverging
    assert est.witness is None


@pytest.mark.parametrize("n", [1, 2])
def test_gamma_search_stays_where_the_weight_is_above_eps(n):
    # W = exp(-|x|^2) under the Gaussian U has the integrand -6|x|^2 - 2n.
    # The objective's error codes flag only W = 0, which takes |x| ~ 27 to
    # underflow; the |W| >= WEIGHT_EPS mask stops the search at
    # |x|^2 = ln(1e12) instead of letting it chase the underflow.
    p = make_problem(n, "gaussian", "exp(-normsq(x))")
    est = estimate_gamma(p, SearchConfig())
    assert not est.diverging
    assert est.value == pytest.approx(-6.0 * math.log(1.0 / WEIGHT_EPS) - 2.0 * n, abs=1e-6)


def test_gamma_trace_monotone(fast_search):
    # enlarging the box can only lower the infimum estimate
    est = estimate_gamma(gaussian_problem(2), fast_search)
    t = est.trace
    assert all(b <= a + 1e-12 for a, b in zip(t, t[1:]))


def test_gamma_seed_reproducible(fast_search):
    a = estimate_gamma(gaussian_problem(2), fast_search)
    b = estimate_gamma(gaussian_problem(2), fast_search)
    assert a.value == b.value
    assert np.array_equal(a.witness, b.witness)
    assert a.trace == b.trace


def test_c_gaussian_sqrt_weight(fast_search):
    p = gaussian_problem(1)
    est = estimate_c(p, 1.0, fast_search)
    assert not est.diverging
    # branch a: 2 sup |W'| = 2 sup |x|/sqrt(1+x^2) = 2
    assert est.value == pytest.approx(2.0, abs=1e-4)


def test_c_zero_weight(fast_search, p2_noweight):
    est = estimate_c(p2_noweight, 1.0, fast_search)
    assert est.value == 0.0
    assert not est.diverging


def test_c_diverging_quadratic_weight(fast_search):
    # W = 1 + |x|^2 has unbounded gradient, so c diverges
    p = make_problem(2, "gaussian", "1 + normsq(x)")
    est = estimate_c(p, 1.0, fast_search)
    assert est.diverging
    assert est.value == math.inf


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize(
    "rho, want, x0",
    [
        (1.0, 5.0, 0.0),  # (rho - LW/W)_+ = (rho + 4 - 20 x0^2)_+ peaks at x0 = 0
        (-4.0, 4.0 * math.exp(-0.5), 0.5),  # 2|grad W| = 8 |x0| e^{-2 x0^2} peaks at |x0| = 1/2
    ],
)
def test_c_takes_the_larger_branch(fast_search, n, rho, want, x0):
    # W = exp(-2 x0^2) under the Gaussian U: LW/W = 20 x0^2 - 4, so rho picks
    # which branch attains c
    p = gaussian_problem(n, parse_field("exp(-2*x0^2)", n))
    est = estimate_c(p, rho, fast_search)
    assert not est.diverging
    assert est.value == pytest.approx(want, abs=1e-9)
    assert est.trace[-1] == est.value
    assert abs(est.witness[0]) == pytest.approx(x0, abs=1e-6)


def test_c_gradient_branch_counts_outside_the_weight_domain(fast_search):
    # |W| < WEIGHT_EPS everywhere, so the drift branch skips every point, but
    # 2 sup|grad W| is a sup over all of R^n: c is finite and no error is raised
    p = gaussian_problem(1, parse_field("1e-13*exp(-2*x0^2)", 1))
    est = estimate_c(p, 1.0, fast_search)
    assert est.value == pytest.approx(4e-13 * math.exp(-0.5), rel=1e-9)


def test_estimate_c_is_one_search(fast_search, monkeypatch):
    calls = []

    def counted(batch, dim, cfg):
        calls.append(dim)
        return _extremize_min(batch, dim, cfg)

    monkeypatch.setattr(curvature_bounds, "_extremize_min", counted)
    estimate_c(gaussian_problem(2), 1.0, fast_search)
    assert calls == [2]


@pytest.mark.parametrize("search, tape_calls", [
    (estimate_gamma, 1),
    (lambda p, s: estimate_c(p, 1.0, s), 2),  # the gradient branch has a tape of its own
], ids=["gamma", "c"])
def test_search_batch_reads_w_from_the_objective_tape(fast_search, monkeypatch, search, tape_calls):
    batches = []

    def first_batch(batch, dim, cfg):
        batches.append(batch)
        return BoundEstimate(0.0, np.zeros(dim), False, [0.0])

    monkeypatch.setattr(curvature_bounds, "_extremize_min", first_batch)
    search(gaussian_problem(2), fast_search)
    runs = []
    run_tape = _tape._run_tape
    monkeypatch.setattr(_tape, "_run_tape", lambda *args: runs.append(1) or run_tape(*args))
    [batch] = batches
    batch(np.random.default_rng(0).uniform(-5.0, 5.0, size=(10, 2)))
    assert len(runs) == tape_calls


def test_c_gradient_branch_keeps_the_zeros_of_w():
    # W = x0 exp(-x0^2) is 0 on the line x0 = 0, where |grad W| peaks at 1;
    # with rho = -5 the drift branch is 2 - 6 x0^2, which reaches 2 only
    # there, so c = 2 is attained where W = 0
    p = ProblemSpec(2, parse_field("normsq(x)/2", 2), parse_field("x0*exp(-x0^2)", 2))
    est = estimate_c(p, -5.0, SearchConfig(seed=1))
    assert est.value == 2.0
    assert est.witness.tolist() == [0.0, -10.0]


def test_c_bounds_sqrt_defect(fast_search, rng):
    # the estimated c makes the defect inequality hold for nonnegative g
    p = gaussian_problem(2)
    c = estimate_c(p, 1.0, fast_search).value + 1e-9
    for _ in range(40):
        h = random_smooth_field(rng, 2, depth=2)
        g = 1.0 + h * h if rng.integers(0, 2) else (0.2 * h).exp()
        x = rng.uniform(-4, 4, size=2)
        lhs, bound = sqrt_defect(p, g, x, rho=1.0, c=c)
        scale = max(1.0, abs(lhs), abs(bound))
        assert lhs >= bound - 1e-9 * scale


def test_pointwise_cd_no_violations(fast_search, rng, p2):
    kappa = estimate_gamma(p2, fast_search).value
    pts = rng.uniform(-3, 3, size=(150, 2))
    for src in ("exp(0.3*x0)", "x0^2 - x1", "1 + x0*x1"):
        rep = check_pointwise_cd(p2, [(parse_field(src, 2), pts)], kappa)
        assert rep.n_checked == 150
        assert rep.n_violations == 0
        assert rep.n_domain_errors == 0
        assert rep.worst_margin is not None


def test_pointwise_cd_detects_violations(p2):
    # kappa far above the true curvature must generate violations
    f = parse_field("exp(0.5*x0)", 2)
    pts = np.array([[4.0, 0.0], [5.0, 0.0], [6.0, 0.0]])
    rep = check_pointwise_cd(p2, [(f, pts)], 10.0)
    assert rep.n_violations > 0
    assert rep.worst_margin < 0
    assert rep.worst_point is not None


def test_pointwise_cd_counts_domain_errors(p2_noweight):
    # W = sqrt(x0) has no value at -1, and a value but no derivative at 0
    p = make_problem(1, "gaussian", "sqrt(x0)")
    f = parse_field("x0^2", 1)
    pts = np.array([[1.0], [-1.0], [4.0], [0.0]])
    rep = check_pointwise_cd(p, [(f, pts)], -1.0)
    jet_errors = 0
    for x in pts:
        try:
            gamma2_w(p, f, x)
            gamma_w(p, f, f, x)
        except DomainError:
            jet_errors += 1
    assert jet_errors == 2
    assert rep.n_domain_errors == jet_errors
    assert rep.n_checked == 4


def test_pointwise_cd_skips_non_finite_points():
    # exp(800) overflows, so the tape gives the fields at (0, 800) the
    # overflow code; that point is a domain error, not the worst
    p = make_problem(2, "x0*exp(x1)", "zero")
    pts = np.array([[0.0, 800.0], [0.0, 0.0], [0.5, 0.1]])
    rep = check_pointwise_cd(p, [(parse_field("x0 + x1", 2), pts)], 0.0)
    assert rep.n_checked == 3
    assert rep.n_domain_errors == 1
    assert math.isfinite(rep.worst_margin)
    assert any(np.array_equal(rep.worst_point, x) for x in pts[1:])


def test_pointwise_cd_sweep_merges_cases(p2):
    # one sweep over several cases adds up the per-case reports; of tied
    # margins (f = x1 is even in x0) the first in case order is the worst
    f = parse_field("x1", 2)
    cases = [
        (parse_field("0.1*x1", 2), np.array([[4.0, 0.0], [5.0, 1.0]])),
        (f, np.array([[0.0, 0.0], [-5.0, 1.0]])),
        (f, np.array([[5.0, 1.0]])),
    ]
    rep = check_pointwise_cd(p2, cases, 2.0)
    parts = [check_pointwise_cd(p2, [case], 2.0) for case in cases]
    assert rep.n_checked == 5
    assert rep.n_violations == sum(r.n_violations for r in parts) == 3
    assert rep.n_domain_errors == 0
    assert rep.worst_margin == parts[1].worst_margin == parts[2].worst_margin < parts[0].worst_margin
    assert np.array_equal(rep.worst_point, [-5.0, 1.0])


def test_pq_gamma_matches_sqrt_weight(fast_search):
    # q = 1 reproduces the sqrt weight results for the p = 2 potential
    est_pq = estimate_gamma(pq_problem(2.0, 1.0, 2), fast_search)
    est_g = estimate_gamma(gaussian_problem(2), fast_search)
    assert est_pq.value == pytest.approx(est_g.value, abs=1e-6)


def test_pq_boundary_divergence(fast_search):
    # supercritical potential growth makes the drift term dominate
    est = estimate_gamma(pq_problem(3.0, 1.0, 2), fast_search)
    assert est.diverging
    assert est.value == -math.inf


def test_bound_estimate_shape():
    est = BoundEstimate(value=1.0, witness=np.zeros(2), diverging=False, trace=[1.0])
    assert est.trace == [1.0]


def test_estimate_c_without_domain_points_raises(fast_search):
    # c is a maximum of nonnegative terms: an empty search is a domain
    # error, not a divergence to -inf
    p = make_problem(2, "gaussian", "sqrt(x0-10)")
    with pytest.raises(DomainError):
        estimate_c(p, 1.0, replace(fast_search, radii_schedule=(5.0,)))
    # once the box reaches the domain the estimate is finite, and the local
    # search drops the starts outside it without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = estimate_c(p, 1.0, replace(fast_search, radii_schedule=(20.0,)))
    assert math.isfinite(est.value) and est.value >= 0.0


REFINE_CFG = SearchConfig(radii_schedule=(1.0,), grid_per_axis=9, multistart_count=4)


def test_refinement_reaches_off_grid_minimum():
    c = np.array([0.123456789, -0.314159265])
    seen = []

    def batch(pts):
        seen.append(pts.copy())
        return 1.0 + np.sum((pts - c) ** 2, axis=1)

    est = _extremize_min(batch, 2, REFINE_CFG)
    assert np.linalg.norm(est.witness - c) < 1e-7
    assert abs(est.value - 1.0) < 1e-12
    # every point the objective sees, refinement trials included, is in the box
    assert np.all(np.abs(np.vstack(seen)) <= 1.0)


def test_refinement_skips_non_finite_points():
    c = np.array([-0.5, 0.25])  # the unconstrained minimum lies in the NaN half
    seen = []

    def batch(pts):
        seen.append(pts.copy())
        vals = 1.0 + np.sum((pts - c) ** 2, axis=1)
        return np.where(pts[:, 0] < 0, np.nan, vals)

    est = _extremize_min(batch, 2, REFINE_CFG)
    assert np.isnan(batch(seen[1])).any()  # some refinement start is not finite
    assert est.witness[0] >= 0.0
    assert np.allclose(est.witness, [0.0, 0.25], atol=1e-7)
    assert est.value == pytest.approx(1.25, abs=1e-12)
    # with no finite point at all there is nothing to refine and no witness
    est = _extremize_min(lambda pts: np.full(len(pts), np.nan), 2, REFINE_CFG)
    assert est.value == math.inf and est.witness is None

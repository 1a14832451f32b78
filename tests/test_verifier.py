import math

import numpy as np
import pytest

from gammaw.field_expr import DomainError, const_field, dot_field, parse_field
from gammaw.gamma_calculus import gamma2_w, gamma_w
from gammaw.presets import gaussian_problem, make_problem
from gammaw.semigroup_mc import GaussianNoise, MCConfig
from gammaw.verifier import (
    NegativeBatteryError,
    OptimalityTable,
    VerificationReport,
    _verdict,
    battery,
    exp_field,
    optimality_study,
    random_smooth_field,
    random_weight_field,
    verify_commutation,
    verify_sqrt_commutation,
    verify_variance,
)


def test_verdict_rules():
    assert _verdict(1.0, 0.0, 1.0, 0.0) == "pass"  # exact tie
    assert _verdict(1.0, 0.0, 2.0, 0.0) == "pass"
    assert _verdict(1.0, 1e-6, 0.9, 1e-6) == "fail"
    # wide error bars: no verdict either way
    assert _verdict(1.0, 0.5, 0.9, 1e-6) == "inconclusive"
    assert _verdict(1.0, 1e-6, 0.9, 0.5) == "inconclusive"
    assert _verdict(1.0, math.inf, 2.0, 0.0) == "inconclusive"
    assert _verdict(1.0, math.nan, 2.0, 0.0) == "inconclusive"
    # slightly below zero but within the noise band
    assert _verdict(1.0, 0.01, 0.99, 0.01) == "pass"
    # stderr cap scales with the magnitude of the sides
    assert _verdict(100.0, 2.0, 110.0, 0.0) == "pass"


def test_battery_shape_and_positivity(rng):
    fields = battery(2)
    labels = [name for name, _ in fields]
    assert labels == ["exp_a0.1", "exp_a1.0", "exp_diag", "poly_quad", "bump"]
    for _, f in fields:
        for _ in range(50):
            assert f.value(rng.uniform(-6, 6, size=2)) > 0.0


def test_exp_field(p2):
    f = exp_field([0.3, -0.1], 2)
    assert f.value([1.0, 2.0]) == pytest.approx(math.exp(0.1))


def test_commutation_passes_small_grid(p2):
    cfg = MCConfig(n_paths=4000, dt=5e-3, seed=21)
    f = [("f", exp_field([0.1, 0.0], 2))]
    rep = verify_commutation(p2, f, -1.0, (0.1, 0.5), ((0.0, 0.0), (1.0, 1.0)), cfg)
    assert len(rep.cases) == 4
    assert rep.n_fail == 0
    assert rep.n_inconclusive == 0
    assert rep.passed


def test_commutation_margin_monotone_in_kappa(p2):
    # raising kappa shrinks the rhs, so margins can only drop
    cfg = MCConfig(n_paths=2000, dt=5e-3, seed=22)
    f = [("f", exp_field([1.0, 0.0], 2))]
    grid = ((2.0, 0.0),)
    margins = []
    for kappa in (-2.0, -1.0, 0.0, 1.0):
        rep = verify_commutation(p2, f, kappa, (1.0,), grid, cfg)
        margins.append(rep.cases[0].margin)
    assert all(b < a for a, b in zip(margins, margins[1:]))


def test_commutation_detects_false_kappa(p2):
    # kappa far above the curvature bound must fail far from the origin
    cfg = MCConfig(n_paths=4000, dt=5e-3, seed=23)
    f = [("f", exp_field([0.1, 0.0], 2))]
    rep = verify_commutation(p2, f, 5.0, (1.0,), ((10.0, 0.0),), cfg)
    assert rep.n_fail == 1
    assert not rep.passed


def test_t_zero_margins_vanish(p2, small_mc):
    f = [("f", exp_field([0.5, 0.0], 2))]
    rep = verify_commutation(p2, f, -1.0, (0.0,), ((0.7, -0.3),), small_mc)
    case = rep.cases[0]
    assert case.margin == pytest.approx(0.0, abs=1e-12)
    assert case.verdict == "pass"


def test_variance_small_grid(p2):
    cfg = MCConfig(n_paths=4000, dt=5e-3, seed=24)
    f = [("f", exp_field([0.1, 0.0], 2))]
    rep = verify_variance(p2, f, -1.0, (0.1,), ((0.0, 0.0),), cfg, time_nodes=5)
    assert rep.n_fail == 0
    assert rep.meta["time_nodes"] == 5


def test_variance_t_zero(p2, small_mc):
    f = [("f", exp_field([0.2, 0.0], 2))]
    rep = verify_variance(p2, f, -1.0, (0.0,), ((0.4, 0.4),), small_mc, time_nodes=5)
    case = rep.cases[0]
    assert case.lhs == pytest.approx(0.0, abs=1e-12)
    assert case.rhs == pytest.approx(0.0, abs=1e-12)
    assert case.verdict == "pass"


def test_sqrt_commutation_small_grid(p2):
    cfg = MCConfig(n_paths=4000, dt=5e-3, seed=25)
    f = [("f", exp_field([0.1, 0.0], 2))]
    rep = verify_sqrt_commutation(p2, f, 1.0, 2.0, (0.1, 0.5), ((0.0, 0.0),), cfg)
    assert rep.n_fail == 0
    assert rep.meta["rho"] == 1.0 and rep.meta["c"] == 2.0


def test_sqrt_commutation_rejects_negative_f(p2, small_mc):
    with pytest.raises(NegativeBatteryError):
        verify_sqrt_commutation(
            p2, [("x0", parse_field("x0", 2))], 1.0, 2.0, (0.1,), ((0.0, 0.0),), small_mc
        )


@pytest.mark.parametrize("x, error", [(-4.5, NegativeBatteryError), (-5.5, DomainError)])
def test_sqrt_commutation_first_bad_point_decides(small_mc, x, error):
    # log(x0 + 5) is negative on (-5, -4) and undefined below -5; the random
    # sample holds points of both kinds, so the grid point, checked first, decides
    f = [("log", parse_field("log(x0 + 5)", 1))]
    with pytest.raises(error):
        verify_sqrt_commutation(gaussian_problem(1), f, 1.0, 2.0, (0.1,), ((x,),), small_mc)


def test_degenerate_w_check(p2):
    # W^2 <= e^{-2 kappa t} Q_t(W^2) is the commutation bound at f = 1; Mehler
    # (Gaussian U) and the sampled left side (the other U) both give W(x)^2 exactly
    cfg = MCConfig(n_paths=4000, dt=5e-3, seed=26)
    one = [("W^2", const_field(1.0, 2))]
    for p in (p2, make_problem(2, "normsq(x)/2 + 0.25*x0^2", "sqrt1sq")):
        rep = verify_commutation(p, one, -1.0, (0.1, 1.0), ((0.0, 0.0), (2.0, 0.0)), cfg)
        assert rep.n_fail == 0
        for case in rep.cases:
            assert case.f_label == "W^2"
            assert case.lhs_se == 0.0
            assert case.lhs == pytest.approx(1.0 + case.x @ case.x, rel=1e-15)


def test_run_battery_merges(p2):
    cfg = MCConfig(n_paths=2000, dt=1e-2, seed=27)
    rep = verify_commutation(p2, battery(2), -1.0, (0.1,), ((0.0, 0.0),), cfg)
    assert len(rep.cases) == 5
    assert {c.f_label for c in rep.cases} == {name for name, _ in battery(2)}


def test_battery_draws_noise_once_for_all_fields(p2, monkeypatch):
    # the Euler-Maruyama work of a battery run does not grow with its size
    labels = []
    normals = GaussianNoise.normals

    def counting(self, label, shape, out=None):
        labels.append(label)
        return normals(self, label, shape, out)

    monkeypatch.setattr(GaussianNoise, "normals", counting)
    cfg = MCConfig(n_paths=200, dt=0.05, seed=29)
    fields = battery(2)[:3]
    grid = ((0.1, 0.2), ((0.0, 0.0), (1.0, 1.0)))
    rep = verify_variance(p2, fields, -1.0, *grid, cfg, time_nodes=5)
    battery_labels = list(labels)
    labels.clear()
    single = verify_variance(p2, fields[:1], -1.0, *grid, cfg, time_nodes=5)
    assert len(rep.cases) == 3 * len(single.cases)
    assert len(battery_labels) == len(labels) > 0
    assert battery_labels == labels


@pytest.mark.parametrize("gaussian", [True, False])
def test_each_noise_label_is_drawn_once_per_call(gaussian, monkeypatch):
    # every start point of a call shares each (stream, step) block, so a
    # check over two points draws each label once; t = 0.1 ends on a full
    # step, so no short step reuses a label
    labels = []
    normals = GaussianNoise.normals

    def counting(self, label, shape, out=None):
        labels.append(label)
        return normals(self, label, shape, out)

    monkeypatch.setattr(GaussianNoise, "normals", counting)
    p = gaussian_problem(2) if gaussian else make_problem(2, "normsq(x)/2 + 0.25*x0^2", "sqrt1sq")
    cfg = MCConfig(n_paths=200, dt=0.02, seed=35)
    grid = ((0.1,), ((0.0, 0.0), (1.0, 0.5)))
    checks = [
        (verify_commutation, (-1.0,), {}),
        (verify_variance, (-1.0,), {"time_nodes": 5}),
        (verify_sqrt_commutation, (1.0, 2.5), {}),
    ]
    for op, args, kwargs in checks:
        labels.clear()
        op(p, battery(2)[:2], *args, *grid, cfg, **kwargs)
        assert labels and len(labels) == len(set(labels)), op.__name__
        streams = {label[:-1] for label in labels}
        assert ((1,) in streams) == (not gaussian and op is not verify_variance)


@pytest.mark.parametrize(
    "op, gaussian, args, kwargs",
    [
        (verify_commutation, False, (-1.0,), {}),
        (verify_variance, True, (-1.0,), {"time_nodes": 5}),
        (verify_sqrt_commutation, False, (1.0, 2.5), {}),
    ],
)
def test_run_battery_csv_matches_single_field_reports(op, gaussian, args, kwargs):
    p = gaussian_problem(2) if gaussian else make_problem(2, "normsq(x)/2 + 0.25*x0^2", "sqrt1sq")
    cfg = MCConfig(n_paths=400, dt=0.02, seed=30)
    grid = ((0.05, 0.1), ((0.0, 0.0), (1.0, 0.5)))
    lines = op(p, battery(2), *args, *grid, cfg, **kwargs).csv_lines()
    want = []
    for label, f in battery(2):
        single = op(p, [(label, f)], *args, *grid, cfg, **kwargs).csv_lines()
        want += single if not want else single[1:]
    assert lines == want


def test_csv_schema_and_determinism(p2, tmp_path):
    cfg = MCConfig(n_paths=2000, dt=1e-2, seed=28)
    f = [("f", exp_field([0.1, 0.0], 2))]

    def run():
        return verify_commutation(p2, f, -1.0, (0.1,), ((0.5, -0.5),), cfg)

    rep = run()
    lines = rep.csv_lines()
    assert lines[0] == "check_id,t,x0,x1,f_label,lhs,lhs_se,rhs,rhs_se,margin,verdict"
    assert len(lines) == 2
    cells = lines[1].split(",")
    assert cells[0] == "commutation"
    assert float(cells[1]) == 0.1
    assert cells[-1] in ("pass", "fail", "inconclusive")
    # margin column is rhs - lhs of the same row
    assert float(cells[-2]) == pytest.approx(float(cells[7]) - float(cells[5]), abs=0)
    # reruns serialize byte-identically
    assert run().csv_lines() == lines
    out = tmp_path / "report.csv"
    rep.write_csv(out)
    assert out.read_text().strip().splitlines() == lines


def test_inconclusive_fraction_counts():
    rep = VerificationReport(check_id="x")
    assert rep.inconclusive_fraction == 0.0
    assert rep.passed


def test_optimality_study_reaches_limit(p2):
    table = optimality_study(
        p2, [(0.0, 0.0), (0.5, 0.0), (1.0, 0.0)], [10.0, 100.0, 1000.0]
    )
    assert isinstance(table, OptimalityTable)
    assert len(table.rows) == 9
    for row in table.rows:
        if row.radius == 1000.0:
            assert abs(row.ratio - row.limit) <= 1e-2
    assert table.best_kappa == pytest.approx(-1.0, abs=1e-2)
    assert table.check()
    header = table.csv_lines()[0]
    assert header == "a0,a1,radius,ratio,limit,abs_err"


def test_optimality_study_matches_the_jet_route():
    # AC5's 12 points: the tape ratios of the symbolic fields against
    # Gamma2W/GammaW from jets
    p = gaussian_problem(2)
    a_list = [(0.0, 0.0), (0.1, 0.0), (0.5, 0.0), (1.0, 0.0)]
    table = optimality_study(p, a_list, (10.0, 100.0, 1000.0))
    assert len(table.rows) == 12
    for row in table.rows:
        norm = float(np.linalg.norm(row.a))
        x = row.radius * (row.a / norm if norm > 0 else np.eye(2)[0])
        f = (dot_field(row.a, 2) - float(row.a @ x)).exp()
        want = gamma2_w(p, f, x) / gamma_w(p, f, f, x)
        assert abs(row.ratio - want) <= 1e-12 * abs(want)


def test_optimality_study_tape_error_is_a_domain_error():
    # W = log(x0) has no value at x = (-10, 0), where a = (-1, 0) points
    p = make_problem(2, "gaussian", "log(x0)")
    with pytest.raises(DomainError):
        optimality_study(p, [(-1.0, 0.0)], [10.0])


def test_optimality_study_validation(p2):
    from gammaw.presets import make_problem

    with pytest.raises(ValueError):
        optimality_study(gaussian_problem(1), [(0.1,)], [10.0])
    with pytest.raises(ValueError):
        optimality_study(make_problem(2, "normsq(x)", "sqrt1sq"), [(0.1, 0.0)], [10.0])


def test_random_fields_are_usable(rng):
    for _ in range(20):
        dim = int(rng.integers(1, 4))
        f = random_smooth_field(rng, dim)
        w = random_weight_field(rng, dim)
        for _ in range(10):
            x = rng.uniform(-3, 3, size=dim)
            assert math.isfinite(f.value(x))
            assert w.value(x) >= 0.0

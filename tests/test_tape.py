import numpy as np
import pytest

from gammaw import _tape
from gammaw.field_expr import DomainError, coord_field, normsq_field, parse_field
from gammaw.gamma_calculus import apply_L_symbolic, gamma_w_field
from gammaw.presets import gaussian_problem
from gammaw.verifier import exp_field

FIELDS = [
    "1 + x0 - 0.5*x1",
    "exp(dot((0.2,-0.4),x))",
    "(1+normsq(x))^(1/2)",
    "x0^2*x1 + log(2 + normsq(x))",
    "x0 / (1 + x1^2) - sqrt(4 + x0^2)",
    "x0^3 - 2*x0^-2",
]


def _sample_points(rng, n=200):
    return rng.uniform(-3.0, 3.0, size=(n, 2))


@pytest.mark.parametrize("src", FIELDS)
def test_values_match_scalar_eval(src, rng):
    f = parse_field(src, 2)
    pts = _sample_points(rng)
    vals, err = _tape.eval_values(f, pts)
    assert err.shape == vals.shape == (len(pts),)
    for k in range(len(pts)):
        if err[k] != 0:
            continue
        assert vals[k] == pytest.approx(f.value(pts[k]), rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("src", FIELDS)
def test_grads_match_jets(src, rng):
    f = parse_field(src, 2)
    pts = _sample_points(rng, n=80)
    vals, grads, err = _tape.eval_values_grads(f, pts)
    assert grads.shape == (len(pts), 2)
    for k in range(len(pts)):
        if err[k] != 0:
            continue
        j = f.jet(pts[k])
        assert vals[k] == pytest.approx(j.value, rel=1e-12, abs=1e-12)
        assert np.allclose(grads[k], j.gradient, rtol=1e-10, atol=1e-10)


def test_error_codes_flag_domain_rows():
    f = parse_field("log(x0)", 2)
    pts = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 0.0], [2.718281828, 0.0]])
    vals, err = _tape.eval_values(f, pts)
    assert err[0] == 0 and err[3] == 0
    assert err[1] != 0 and err[2] != 0
    assert vals[0] == pytest.approx(0.0)
    # scalar route raises instead
    with pytest.raises(DomainError):
        f.value([-1.0, 0.0])


def test_error_codes_cover_div_sqrt_pow():
    assert _tape.backend_name() == "numpy"
    f = parse_field("1/x0", 1)
    _, err = _tape.eval_values(f, np.array([[0.0]]))
    assert _tape.err_message(err[0]) == "division by zero"
    g = parse_field("sqrt(x0)", 1)
    _, err = _tape.eval_values(g, np.array([[-1.0]]))
    assert "sqrt" in _tape.err_message(err[0])
    # sqrt has a value at 0 but no derivative, as for g.value and g.jet
    vals, err = _tape.eval_values(g, np.array([[0.0]]))
    assert vals[0] == 0.0 and err[0] == _tape.ERR_NONE
    vals, grads, err = _tape.eval_values_grads(g, np.array([[0.0]]))
    assert err[0] == _tape.ERR_SQRT
    assert np.isnan(vals[0]) and np.isnan(grads[0, 0])
    h = parse_field("x0^0.5", 1)
    _, err = _tape.eval_values(h, np.array([[-1.0]]))
    assert "power" in _tape.err_message(err[0])


def test_overflow_gets_its_own_code():
    f = parse_field("exp(x0)", 1)
    pts = np.array([[800.0], [0.0], [1.0]])
    vals, err = _tape.eval_values(f, pts)
    assert err.tolist() == [_tape.ERR_OVERFLOW, 0, 0]
    assert _tape.err_message(_tape.ERR_OVERFLOW) == "overflow"
    assert np.isnan(vals[0]) and np.array_equal(vals[1:], np.exp(pts[1:, 0]))
    vals, grads, err = _tape.eval_values_grads(f, pts)
    assert err.tolist() == [_tape.ERR_OVERFLOW, 0, 0]
    assert np.isnan(vals[0]) and np.isnan(grads[0, 0])
    assert np.isfinite(vals[1:]).all() and np.isfinite(grads[1:]).all()


def test_tape_deduplicates_shared_subtrees():
    n = normsq_field(2)
    big = (1.0 + n) * (1.0 + n) + (1.0 + n).sqrt()
    tape = _tape.compile_tape(big)
    # normsq, const 1, add appear once each despite three uses
    assert int(np.sum(tape.ops == _tape.OP_NORMSQ)) == 1
    adds = int(np.sum(tape.ops == _tape.OP_ADD))
    assert adds == 2  # (1+n) shared, plus the top-level sum


def test_registers_are_the_distinct_nodes():
    p = gaussian_problem(3)
    f = exp_field([0.3, -0.2, 0.5], 3)
    ll_gw = apply_L_symbolic(p, apply_L_symbolic(p, gamma_w_field(p, f, f)))
    seen, stack = set(), [ll_gw.root]
    while stack:
        n = stack.pop()
        if n not in seen:
            seen.add(n)
            stack.extend(getattr(n, k) for k in ("a", "b") if hasattr(n, k))
    assert _tape.compile_tape(ll_gw).n_registers == len(seen)


def test_tape_cached_on_field():
    f = coord_field(0, 2) * 3.0
    t1 = _tape.compile_tape(f)
    t2 = _tape.compile_tape(f)
    assert t1 is t2


def test_points_shape_validated():
    f = coord_field(0, 2)
    with pytest.raises(ValueError):
        _tape.eval_values(f, np.zeros((4, 3)))


def test_single_point_promoted():
    f = parse_field("x0 + 2*x1", 2)
    vals, err = _tape.eval_values(f, np.array([1.0, 2.0]))
    assert vals.shape == (1,)
    assert vals[0] == pytest.approx(5.0)

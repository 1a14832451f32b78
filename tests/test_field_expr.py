import gc
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gammaw import _tape, field_expr
from gammaw.field_expr import (
    Add,
    Const,
    Coord,
    Div,
    DomainError,
    Dot,
    Exp,
    Mul,
    NormSq,
    ParseError,
    Pow,
    ScalarField,
    Sqrt,
    Sub,
    const_field,
    coord_field,
    dot_field,
    finite_diff_jet,
    normsq_field,
    parse_field,
)
from gammaw.verifier import random_smooth_field


def test_parse_basic_value():
    f = parse_field("(1+normsq(x))^(1/2)", 3)
    assert f.value([1.0, 1.0, 1.0]) == pytest.approx(2.0)
    assert f.value(np.zeros(3)) == pytest.approx(1.0)


def test_parse_dot_and_precedence():
    f = parse_field("dot((1,-2),x) + 3*x0^2", 2)
    # 1*2 - 2*1 + 3*4 = 12
    assert f.value([2.0, 1.0]) == pytest.approx(12.0)


def test_parse_unary_minus_and_power():
    f = parse_field("-x0^2", 1)
    assert f.value([3.0]) == pytest.approx(-9.0)
    g = parse_field("2^-1", 1)
    assert g.value([0.0]) == pytest.approx(0.5)


def test_parse_coordinate_out_of_range():
    with pytest.raises(ParseError) as exc:
        parse_field("x7 + 1", 2)
    assert exc.value.position == 0


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as exc:
        parse_field("exp(x0", 1)
    assert exc.value.position == len("exp(x0")
    with pytest.raises(ParseError):
        parse_field("dot((1,2,3),x)", 2)
    with pytest.raises(ParseError):
        parse_field("x0 + ", 1)
    with pytest.raises(ParseError):
        parse_field("x0 $ 1", 1)
    with pytest.raises(ParseError):
        parse_field("", 1)


def test_power_requires_constant_exponent():
    with pytest.raises(ParseError):
        parse_field("x0^x0", 1)
    # exponents may be arithmetic on constants
    f = parse_field("x0^(3-1)", 1)
    assert f.value([4.0]) == pytest.approx(16.0)


def test_bare_x_rejected_outside_builtins():
    with pytest.raises(ParseError):
        parse_field("x + 1", 2)


EXAMPLES = [
    ("1.5", 2),
    ("x0 - 2*x1", 2),
    ("(1+normsq(x))^(1/2)", 3),
    ("exp(dot((0.3,-0.7),x))", 2),
    ("log(1 + x0^2) / (2 + sqrt(1+normsq(x)))", 2),
    ("-x1^3 + 4*x0*x1 - 7", 2),
    # a right operand of the same precedence keeps its parentheses
    ("x0 + (x1 + 1)", 2),
    ("x0*(x1/x0)", 2),
    ("x0 - (x1 - x0)", 2),
    # a folded -0.0, which the text -0.0 would read back as +0.0
    ("0*-1 - x0", 1),
]


@pytest.mark.parametrize("src,dim", EXAMPLES)
def test_to_text_round_trip(src, dim):
    f = parse_field(src, dim)
    assert parse_field(f.to_text(), dim) == f


def test_to_text_round_trip_random_fields():
    for seed in range(300):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(1, 4))
        f = random_smooth_field(rng, dim, depth=4)
        assert parse_field(f.to_text(), dim) == f, (seed, f.to_text())


def _random_field(rng: np.random.Generator, dim: int, depth: int) -> ScalarField:
    if depth == 0:
        pick = rng.integers(0, 4)
        if pick == 0:
            return const_field(float(rng.uniform(-2, 2)), dim)
        if pick == 1:
            return coord_field(int(rng.integers(0, dim)), dim)
        if pick == 2:
            return dot_field(rng.uniform(-1, 1, size=dim))
        return normsq_field(dim) * float(rng.uniform(0.1, 0.5))
    a = _random_field(rng, dim, depth - 1)
    b = _random_field(rng, dim, depth - 1)
    pick = rng.integers(0, 6)
    if pick == 0:
        return a + b
    if pick == 1:
        return a - b
    if pick == 2:
        return a * b
    if pick == 3:
        return a / (1.0 + b * b)
    if pick == 4:
        return (1.0 + a * a).sqrt()
    return (0.3 * dot_field(rng.uniform(-1, 1, size=dim))).exp()


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), dim=st.integers(1, 3))
def test_jet_matches_symbolic_derivatives(seed, dim):
    rng = np.random.default_rng(seed)
    f = _random_field(rng, dim, 3)
    x = rng.uniform(-1.5, 1.5, size=dim)
    try:
        j = f.jet(x)
    except DomainError:
        return
    for i in range(dim):
        assert f.diff(i).value(x) == pytest.approx(j.gradient[i], rel=1e-9, abs=1e-9)
        for k in range(dim):
            assert f.diff(i).diff(k).value(x) == pytest.approx(
                j.hessian[i, k], rel=1e-9, abs=1e-9
            )


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), dim=st.integers(1, 3))
def test_jet_matches_finite_differences(seed, dim):
    rng = np.random.default_rng(seed)
    f = _random_field(rng, dim, 2)
    x = rng.uniform(-1.0, 1.0, size=dim)
    try:
        j = f.jet(x)
        fd = finite_diff_jet(f, x, h=1e-5)
    except DomainError:
        return
    scale = max(1.0, float(np.max(np.abs(j.gradient))), abs(j.value))
    assert np.allclose(j.gradient, fd.gradient, atol=1e-5 * scale, rtol=1e-5)
    hscale = max(1.0, float(np.max(np.abs(j.hessian))))
    assert np.allclose(j.hessian, fd.hessian, atol=2e-4 * hscale, rtol=1e-4)


@pytest.mark.parametrize("src, x", [("1/(x0-3)", [0.5, 0.2]), ("x1/(x0*x0-4)", [0.7, -1.3])])
def test_jet_of_a_negative_denominator(src, x):
    # 1/v takes the rule of v^-1, whose integer exponent allows v < 0
    f = parse_field(src, 2)
    x = np.array(x)
    j = f.jet(x)
    fd = finite_diff_jet(f, x, h=1e-5)
    assert j.value == pytest.approx(f.value(x), rel=1e-15)
    assert np.allclose(j.gradient, fd.gradient, rtol=1e-7, atol=1e-9)
    assert np.allclose(j.hessian, fd.hessian, rtol=1e-4, atol=1e-6)
    for i in range(2):
        assert f.diff(i).value(x) == pytest.approx(j.gradient[i], rel=1e-12, abs=1e-15)
        for k in range(2):
            assert f.diff(i).diff(k).value(x) == pytest.approx(j.hessian[i, k], rel=1e-12, abs=1e-15)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_hessian_symmetric(seed):
    rng = np.random.default_rng(seed)
    f = _random_field(rng, 2, 3)
    x = rng.uniform(-1.2, 1.2, size=2)
    try:
        j = f.jet(x)
    except DomainError:
        return
    assert np.allclose(j.hessian, j.hessian.T)


def test_domain_errors():
    f = parse_field("log(x0)", 1)
    with pytest.raises(DomainError):
        f.value([-1.0])
    with pytest.raises(DomainError):
        f.value([0.0])
    g = parse_field("sqrt(x0)", 1)
    with pytest.raises(DomainError):
        g.value([-0.5])
    # sqrt value exists at 0 but its derivatives blow up
    assert g.value([0.0]) == 0.0
    with pytest.raises(DomainError):
        g.jet([0.0])
    h = parse_field("1/x0", 1)
    with pytest.raises(DomainError):
        h.value([0.0])
    q = parse_field("x0^0.5", 1)
    with pytest.raises(DomainError):
        q.value([-2.0])


def test_overflow_is_a_domain_error():
    # math.exp and float ** raise OverflowError; values, jets and constant
    # folding report it as a domain error, which callers skip or report
    for src, x in (("x0*exp(x1)", [0.0, 800.0]), ("x0^3 + x1", [1e200, 0.0])):
        f = parse_field(src, 2)
        with pytest.raises(DomainError):
            f.value(x)
        with pytest.raises(DomainError):
            f.jet(x)
    for src in ("exp(1000)*x0", "1e200^2 + x0"):
        with pytest.raises(DomainError):
            parse_field(src, 1)
    # float * and - give inf and nan without raising; the tape flags those
    # rows with the overflow code, and values and jets raise there too
    for src in ("x0*x0", "x0*x0 - x0*x0"):
        f = parse_field(src, 1)
        assert _tape.eval_values(f, np.array([[1e200]]))[1][0] == _tape.ERR_OVERFLOW
        with pytest.raises(DomainError):
            f.value([1e200])
        with pytest.raises(DomainError):
            f.jet([1e200])
    # a finite value with a gradient that is not finite: d/dx1 (x1 x0 x0) = inf
    f = parse_field("x1*x0*x0", 2)
    assert f.value([1e200, 0.0]) == 0.0
    with np.errstate(over="ignore"), pytest.raises(DomainError):
        f.jet([1e200, 0.0])


def test_non_finite_numbers_do_not_parse():
    # a literal that is not finite is a ParseError at its position; a
    # constant fold that is not finite is a DomainError, as exp and ^ folds are
    for src, at in (("1e400*x0", 0), ("x0^1e400", 3), ("dot((1e400,0),x)", 5)):
        with pytest.raises(ParseError) as exc:
            parse_field(src, 2)
        assert exc.value.position == at
    for src in ("1e300*1e300*x0", "1e308 + 1e308 + x0", "(-1e308 - 1e308)*x0", "1e300/1e-300 - x0"):
        with pytest.raises(DomainError):
            parse_field(src, 1)


@pytest.mark.parametrize("build", [
    lambda x0: x0 ** math.inf,
    lambda x0: x0 ** math.nan,
    lambda x0: x0 * math.inf,
    lambda x0: x0 - math.nan,
    lambda x0: const_field(-math.inf, 2) ** 2.0,
    lambda x0: const_field(2.0, 2) ** math.nan,
    lambda x0: dot_field([1.0, math.nan]),
    lambda x0: dot_field([-math.inf, 0.0]),
], ids=["x0^inf", "x0^nan", "x0*inf", "x0-nan", "const-inf", "2^nan", "dot-nan", "dot-inf"])
def test_non_finite_floats_from_python_are_domain_errors(build):
    # the Python API checks what the parser checks: x0**inf made the tape
    # raise OverflowError, x0**nan made .value raise ValueError, and x0*inf
    # printed as x0*inf, which does not parse
    with pytest.raises(DomainError):
        build(coord_field(0, 2))


def test_constant_folding_and_identities():
    f = parse_field("0*x0 + 1*x1 + 0", 2)
    assert f.to_text() == "x1"
    g = parse_field("2^3 + 1", 1)
    assert g.to_text() == "9.0"
    assert (coord_field(0, 1) * 0.0).is_zero()


def test_derivative_of_a_quotient_by_a_constant():
    # (a/c)' is a'/c, not the full quotient rule (a'c - a*0)/c^2
    assert parse_field("x0^3/3", 2).diff(0).to_text() == "3.0*x0^2.0/3.0"


def test_field_arithmetic_and_immutability():
    f = coord_field(0, 2)
    g = 1.0 + f * f
    assert g.value([3.0, 0.0]) == pytest.approx(10.0)
    assert (2.0 / g).value([1.0, 0.0]) == pytest.approx(1.0)
    assert (-f).value([2.0, 5.0]) == pytest.approx(-2.0)
    with pytest.raises(AttributeError):
        f.dim = 3
    with pytest.raises(ValueError):
        f + coord_field(0, 3)


def test_point_shape_checked():
    f = normsq_field(2)
    with pytest.raises(ValueError):
        f.value([1.0, 2.0, 3.0])


def test_dim_validation():
    with pytest.raises(ValueError):
        coord_field(5, 2)
    with pytest.raises(ValueError):
        dot_field([1.0, 2.0], dim=3)
    with pytest.raises(ValueError):
        const_field(1.0, 0)


def test_exp_log_sqrt_chain():
    f = (normsq_field(2) + 1.0).log().exp()
    x = [0.6, -1.1]
    assert f.value(x) == pytest.approx(1.0 + 0.6**2 + 1.1**2)
    g = (normsq_field(2) + 1.0).sqrt()
    jg = g.jet([3.0, 4.0])
    r = math.sqrt(26.0)
    assert jg.value == pytest.approx(r)
    assert jg.gradient == pytest.approx(np.array([3.0, 4.0]) / r)


def _distinct_nodes(root) -> set:
    seen, stack = set(), [root]
    while stack:
        n = stack.pop()
        if n not in seen:
            seen.add(n)
            stack.extend(getattr(n, k) for k in ("a", "b") if hasattr(n, k))
    return seen


def test_field_rejects_bad_leaves_at_any_depth():
    for root in (Coord(2), Add(Const(1.0), Mul(Coord(0), Exp(Coord(2))))):
        with pytest.raises(ValueError, match="coordinate x2 out of range for dim 2"):
            ScalarField(root, 2)
    for root in (Dot((1.0,)), Add(Coord(1), Sqrt(Dot((1.0,))))):
        with pytest.raises(ValueError, match="dot vector has length 1, expected 2"):
            ScalarField(root, 2)
    ok = ScalarField(Add(Coord(1), Dot((1.0, 2.0))), 2)
    assert ok.value([1.0, 1.0]) == 4.0


def test_node_metadata_from_children():
    d2, d3 = Dot((1.0, 2.0)), Dot((1.0, 2.0, 3.0))
    mixed = Add(Mul(d2, Coord(4)), Sub(d3, d2))
    assert (mixed.dot_lens, mixed.max_coord) == ((2, 3), 4)
    mixed = Add(Sub(d3, d2), Mul(d2, Coord(4)))
    assert (mixed.dot_lens, mixed.max_coord) == ((3, 2), 4)
    assert (Div(d3, Exp(d2)).dot_lens, Div(Exp(d2), d3).dot_lens) == ((3, 2), (2, 3))
    assert (Pow(Coord(1), 0.5).dot_lens, Pow(Coord(1), 0.5).max_coord) == ((), 1)
    assert (Sqrt(d3).dot_lens, Sqrt(d3).max_coord) == ((3,), -1)
    assert (Coord(2).max_coord, Const(2.0).max_coord, NormSq().max_coord) == (2, -1, -1)
    assert (Coord(2).dot_lens, Const(2.0).dot_lens, NormSq().dot_lens) == ((), (), ())


def test_nodes_are_interned():
    src = "exp(dot((0.5,-1),x)) * (1 + normsq(x))^(1/2) - x1/3"
    assert parse_field(src, 2).root is parse_field(src, 2).root
    assert parse_field(src, 2) == parse_field(src, 2)
    assert Const(0.0) is Const(0.0)
    assert Const(0.0) is not Const(-0.0)
    assert Dot((0.0, 1.0)) is not Dot((-0.0, 1.0))


def test_intern_table_drops_dead_nodes():
    gc.collect()
    before = len(field_expr._NODES)
    x0 = coord_field(0, 1)
    big = const_field(0.0, 1)
    for k in range(500):
        big = big + (x0 + (k + 0.123)) ** 2
    assert len(field_expr._NODES) >= before + 1500
    del big, x0
    gc.collect()
    assert len(field_expr._NODES) <= before


def test_value_visits_each_distinct_node_once(monkeypatch):
    inner = field_expr._eval_node
    computed = []

    def counting(n, x, memo):
        if n not in memo:
            computed.append(n)
        return inner(n, x, memo)

    monkeypatch.setattr(field_expr, "_eval_node", counting)
    s = normsq_field(2) + 1.0
    f = (s * s + s.sqrt()) / s + s.log() * s
    f = f * f
    assert f.value([0.3, -0.4]) == pytest.approx((1.25 + 1.25**-0.5 + math.log(1.25) * 1.25) ** 2)
    assert len(computed) == len(set(computed)) == len(_distinct_nodes(f.root))


def test_walkers_take_a_deep_left_sum():
    # one frame per DAG level: 800 levels fit under the default recursion
    # limit of 1000, two frames per level (a dispatch table) would not
    x0 = coord_field(0, 1)
    big = const_field(0.0, 1)
    for k in range(800):
        big = big + (x0 + k) ** 2
    x = 0.5
    exact = sum((x + k) ** 2 for k in range(800))
    assert big.value([x]) == pytest.approx(exact, rel=1e-12)
    assert big.jet([x]).gradient[0] == pytest.approx(sum(2 * (x + k) for k in range(800)), rel=1e-12)
    assert big.diff(0).value([x]) == pytest.approx(sum(2 * (x + k) for k in range(800)), rel=1e-12)
    vals, err = _tape.eval_values(big, np.array([[x]]))
    assert err[0] == 0 and vals[0] == pytest.approx(exact, rel=1e-12)
    assert parse_field(big.to_text(), 1) == big


def _concrete_node_classes() -> list[type]:
    found, stack = [], [field_expr.Node]
    while stack:
        cls = stack.pop()
        subs = cls.__subclasses__()
        stack.extend(subs)
        if not subs and cls.__module__ == field_expr.__name__:
            found.append(cls)
    return sorted(found, key=lambda c: c.__name__)


# one small 2-D field holding each node class
NODE_EXAMPLES = {
    "Const": "x0 + 2.5",
    "Coord": "x1",
    "Add": "x0 + x1",
    "Sub": "x0 - x1",
    "Mul": "x0*x1",
    "Div": "x0/(2 + x1)",
    "Pow": "(1 + x0^2)^0.5",
    "Exp": "exp(x0*x1)",
    "Log": "log(1 + normsq(x))",
    "Sqrt": "sqrt(1 + x1^2)",
    "NormSq": "normsq(x)",
    "Dot": "dot((0.5,-1),x)",
}


FIELD_NAMES = ("a", "b", "expo", "c", "i", "coeffs")  # constructor arguments, in order


@pytest.mark.parametrize("cls", _concrete_node_classes(), ids=lambda c: c.__name__)
def test_every_node_class_goes_through_every_walker(cls):
    gc.collect()
    before = len(field_expr._NODES)
    f = parse_field(NODE_EXAMPLES[cls.__name__], 2)
    node = next(n for n in _distinct_nodes(f.root) if type(n) is cls)
    x = np.array([0.7, -0.3])
    value = f.value(x)
    vals, err = _tape.eval_values(f, x[None, :])
    assert err[0] == 0 and vals[0] == value
    jet = f.jet(x)
    assert jet.value == value
    for i in range(2):
        assert jet.gradient[i] == pytest.approx(f.diff(i).value(x), rel=1e-12, abs=1e-12)
    assert parse_field(f.to_text(), 2).value(x) == value
    names = [k for k in FIELD_NAMES if hasattr(node, k)]
    for name in ("max_coord", "dot_lens", *names):
        with pytest.raises(AttributeError):
            setattr(node, name, None)
    assert cls(*(getattr(node, k) for k in names)) is node
    del f, node, jet
    gc.collect()
    assert len(field_expr._NODES) <= before

import math

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
    assert tape.ops.count(_tape.OP_NORMSQ) == 1
    adds = tape.ops.count(_tape.OP_ADD)
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


# ---------------------------------------------------------------------------
# The point-major interpreter the component-major one replaced, kept as the
# reference it must match bit for bit
# ---------------------------------------------------------------------------


def _run_chunk_reference(tape, pts, want_grads):
    m, n = pts.shape
    k_regs = tape.n_registers
    reg = np.empty((k_regs, m))
    dreg = np.zeros((k_regs, m, n)) if want_grads else None
    err = np.zeros(m, dtype=np.int64)

    def flag(bad, code):
        fresh = bad & (err == 0)
        err[fresh] = code

    with np.errstate(all="ignore"):
        for k in range(k_regs):
            op = int(tape.ops[k])
            i1, i2 = int(tape.a1[k]), int(tape.a2[k])
            if op == _tape.OP_CONST:
                reg[k] = tape.consts[i1]
            elif op == _tape.OP_COORD:
                reg[k] = pts[:, i1]
                if want_grads:
                    dreg[k, :, i1] = 1.0
            elif op == _tape.OP_ADD:
                reg[k] = reg[i1] + reg[i2]
                if want_grads:
                    dreg[k] = dreg[i1] + dreg[i2]
            elif op == _tape.OP_SUB:
                reg[k] = reg[i1] - reg[i2]
                if want_grads:
                    dreg[k] = dreg[i1] - dreg[i2]
            elif op == _tape.OP_MUL:
                reg[k] = reg[i1] * reg[i2]
                if want_grads:
                    dreg[k] = reg[i1][:, None] * dreg[i2] + reg[i2][:, None] * dreg[i1]
            elif op == _tape.OP_DIV:
                flag(reg[i2] == 0.0, _tape.ERR_DIV)
                denom = np.where(reg[i2] == 0.0, 1.0, reg[i2])
                reg[k] = reg[i1] / denom
                if want_grads:
                    dreg[k] = (dreg[i1] - reg[k][:, None] * dreg[i2]) / denom[:, None]
            elif op == _tape.OP_POW:
                reg[k], u1 = _pow_reference(reg[i1], tape.consts[i2], err)
                if want_grads:
                    dreg[k] = u1[:, None] * dreg[i1]
            elif op == _tape.OP_EXP:
                reg[k] = np.exp(reg[i1])
                if want_grads:
                    dreg[k] = reg[k][:, None] * dreg[i1]
            elif op == _tape.OP_LOG:
                flag(reg[i1] <= 0.0, _tape.ERR_LOG)
                safe = np.where(reg[i1] <= 0.0, 1.0, reg[i1])
                reg[k] = np.log(safe)
                if want_grads:
                    dreg[k] = dreg[i1] / safe[:, None]
            elif op == _tape.OP_SQRT:
                v = reg[i1]
                flag(v < 0.0, _tape.ERR_SQRT)
                if want_grads:
                    flag(v == 0.0, _tape.ERR_SQRT)
                safe = np.where(v <= 0.0, 1.0, v)
                reg[k] = np.where(v < 0.0, np.nan, np.sqrt(np.where(v < 0.0, 0.0, v)))
                if want_grads:
                    dreg[k] = (0.5 / np.sqrt(safe))[:, None] * dreg[i1]
            elif op == _tape.OP_NORMSQ:
                reg[k] = np.einsum("ij,ij->i", pts, pts)
                if want_grads:
                    dreg[k] = 2.0 * pts
            else:  # OP_DOT
                c = tape.vecs[i1]
                reg[k] = pts @ c
                if want_grads:
                    dreg[k] = np.broadcast_to(c, (m, n)).copy()

        out = reg[k_regs - 1].copy()
        g = dreg[k_regs - 1].copy() if want_grads else None
        if not math.isfinite(out.sum() + (g.sum() if want_grads else 0.0)):
            overflow = ~np.isfinite(out)
            if want_grads:
                overflow |= ~np.isfinite(g).all(axis=1)
            flag(overflow, _tape.ERR_OVERFLOW)
    bad = err != 0
    out[bad] = np.nan
    if want_grads:
        g[bad] = np.nan
    return out, g, err


def _pow_reference(v, e, err):
    ei = int(round(e))
    is_int = abs(e - ei) < 1e-12
    bad = ((v == 0.0) & (ei < 0)) if is_int else (v <= 0.0)
    err[bad & (err == 0)] = _tape.ERR_POW
    safe = np.where(bad, 1.0, v)
    if is_int:
        val = safe**ei
        u1 = float(e) * safe ** (ei - 1)
    else:
        val = safe**e
        u1 = e * safe ** (e - 1.0)
    return np.where(bad, np.nan, val), np.where(bad, np.nan, u1)


def _eval_reference(f, pts, want_grads):
    # chunked like the public entry points, so a batch crosses the same boundaries
    tape = _tape.compile_tape(f)
    parts = [
        _run_chunk_reference(tape, pts[lo:lo + _tape._CHUNK], want_grads)
        for lo in range(0, len(pts), _tape._CHUNK)
    ]
    vals = np.concatenate([v for v, _, _ in parts])
    err = np.concatenate([e for _, _, e in parts])
    grads = np.concatenate([g for _, g, _ in parts]) if want_grads else None
    return vals, grads, err


def _every_opcode_fields(n):
    """Fields that together hold every opcode, most of them with a domain
    edge, in dimension n."""
    last = f"x{n - 1}"
    a = "(" + ",".join(f"{0.3 * (i + 1) * (-1) ** i:g}" for i in range(n)) + ")"
    return [
        "3.5",
        "x0",
        f"x0 + {last}*x0 - 2",
        f"x0*{last} - x0/(1 + {last}^2)",
        f"x0 / {last}",
        "x0^2", "x0^3", "x0^-1", "x0^-2", "x0^0.5", "x0^1.5", "x0^-0.5",
        "(1 + normsq(x))^-0.5",
        f"exp(dot({a}, x)) * x0",
        "log(x0) + sqrt(x0)",
        "sqrt(normsq(x)) - log(2 + normsq(x)) * exp(-x0^2)",
        f"exp(x0) * dot({a}, x) + {last}",
    ]


def _edge_points(rng, m, n):
    pts = rng.uniform(-3.0, 3.0, size=(m, n))
    pts[0] = 0.0
    pts[1] = -0.0
    pts[2, 0] = -1.0
    pts[3, 0] = 800.0  # exp overflows
    pts[4, -1] = 0.0
    pts[5] = [1e-300] * n
    pts[6] = [1e154] * n  # normsq overflows
    return pts


def _assert_matches_reference(f, pts):
    for want_grads in (False, True):
        vals, grads, err = _tape._run(f, pts, want_grads)
        ref_vals, ref_grads, ref_err = _eval_reference(f, pts, want_grads)
        assert np.array_equal(err, ref_err)
        assert np.array_equal(vals, ref_vals, equal_nan=True)
        if want_grads:
            assert grads.shape == ref_grads.shape == pts.shape
            assert np.array_equal(grads, ref_grads, equal_nan=True)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_every_opcode_matches_reference(n):
    rng = np.random.default_rng(100 + n)
    pts = _edge_points(rng, 300, n)
    fields = [parse_field(src, n) for src in _every_opcode_fields(n)]
    ops = {op for f in fields for op in _tape.compile_tape(f).ops}
    assert ops == set(range(_tape.OP_DOT + 1))
    for f in fields:
        _assert_matches_reference(f, pts)


def test_chunk_boundary_matches_reference():
    rng = np.random.default_rng(11)
    pts = _edge_points(rng, _tape._CHUNK + 1, 2)
    pts[-1] = [0.0, -1.0]  # the one row of the second chunk has error codes
    for src in ("x0*x1 - x0/(1 + x1^2)", "log(x0) + sqrt(x1) + exp(dot((0.5,-1),x))"):
        _assert_matches_reference(parse_field(src, 2), pts)


@pytest.mark.parametrize("src, x0, code", [
    ("1/x0", 0.0, _tape.ERR_DIV),
    ("log(x0)", -1.0, _tape.ERR_LOG),
    ("sqrt(x0)", -1.0, _tape.ERR_SQRT),
    ("x0^-1.5", -1.0, _tape.ERR_POW),
    ("x0^-2", 0.0, _tape.ERR_POW),
    ("exp(x0)", 800.0, _tape.ERR_OVERFLOW),
])
def test_error_rows_match_reference(src, x0, code):
    f = parse_field(src, 2)
    pts = np.array([[2.0, 1.0], [x0, 1.0], [0.5, -3.0]])
    for want_grads in (False, True):
        _, _, err = _tape._run(f, pts, want_grads)
        assert err.tolist() == [0, code, 0]
    _assert_matches_reference(f, pts)


def test_normsq_rounds_like_einsum():
    # for n = 3 a column sum of squares rounds differently on about a
    # quarter of these rows; the tape must keep einsum's rounding
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(2000, 3)) * np.array([1e-3, 1.0, 1e3])
    column_sum = pts[:, 0] ** 2 + pts[:, 1] ** 2 + pts[:, 2] ** 2
    ref, _, _ = _eval_reference(normsq_field(3), pts, False)
    assert not np.array_equal(column_sum, ref)
    vals, _ = _tape.eval_values(normsq_field(3), pts)
    assert np.array_equal(vals, ref)

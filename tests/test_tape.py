import math
import threading
import tracemalloc

import numpy as np
import pytest

from gammaw import _tape
from gammaw.field_expr import DomainError, coord_field, normsq_field, parse_field
from gammaw.gamma_calculus import apply_L_symbolic, gamma2_w_field, gamma_w_field
from gammaw.presets import gaussian_problem
from gammaw.verifier import exp_field, random_problem, random_smooth_field

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
    # sqrt has a value at 0 but no derivative, as for g.value and g.jet: the
    # gradient tape divides by 2 sqrt(x0) = 0
    vals, err = _tape.eval_values(g, np.array([[0.0]]))
    assert vals[0] == 0.0 and err[0] == _tape.ERR_NONE
    vals, grads, err = _tape.eval_values_grads(g, np.array([[0.0]]))
    assert err[0] == _tape.ERR_DIV
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


def _ll_gamma_w_3d():
    p = gaussian_problem(3)
    f = exp_field([0.3, -0.2, 0.5], 3)
    return apply_L_symbolic(p, apply_L_symbolic(p, gamma_w_field(p, f, f)))


def test_registers_are_the_distinct_nodes():
    ll_gw = _ll_gamma_w_3d()
    seen, stack = set(), [ll_gw.root]
    while stack:
        n = stack.pop()
        if n not in seen:
            seen.add(n)
            stack.extend(getattr(n, k) for k in ("a", "b") if hasattr(n, k))
    tape = _tape.compile_tape(ll_gw)
    assert tape.n_registers == len(seen) == 2967
    # the rows are the peak live set, not one per register
    assert tape.n_slots <= 200
    _assert_rows_hold(tape)


# register operands of each opcode, written out apart from the tape's own table
_BINARY = {_tape.OP_ADD, _tape.OP_SUB, _tape.OP_MUL, _tape.OP_DIV}
_UNARY = {_tape.OP_POW, _tape.OP_EXP, _tape.OP_LOG, _tape.OP_SQRT}


def _operands(tape, k):
    op = tape.ops[k]
    if op in _BINARY:
        return (tape.a1[k], tape.a2[k])
    return (tape.a1[k],) if op in _UNARY else ()


def _assert_rows_hold(tape):
    """Replay the row map op by op: every read finds its register still in
    its row, no op writes a row it reads, and the root's row ends holding
    the root."""
    holder = _replay_rows(tape)
    root = tape.n_registers - 1
    assert tape.slot[root] == 0  # the row the interpreter returns
    assert holder[0] == root


def _replay_rows(tape):
    """Every read finds its register still in its row and no op writes a
    row it reads; a constant that is not a root is a literal, with no row;
    returns the register each row ends holding."""
    assert len(tape.slot) == tape.n_registers
    literals = {k for k, row in enumerate(tape.slot) if row >= tape.n_slots}
    for k in literals:
        assert tape.ops[k] == _tape.OP_CONST and tape.slot[k] == tape.n_slots + tape.a1[k]
    assert {tape.slot[k] for k in range(tape.n_registers) if k not in literals} == set(range(tape.n_slots))
    holder = {}  # row -> register whose value it holds
    for k in range(tape.n_registers):
        if k in literals:
            continue
        rows_read = set()
        for x in set(_operands(tape, k)) - literals:
            assert holder[tape.slot[x]] == x, f"op {k} reads register {x} after its row was reused"
            rows_read.add(tape.slot[x])
        assert tape.slot[k] not in rows_read, f"op {k} writes a row it reads"
        holder[tape.slot[k]] = k
    return holder


@pytest.mark.parametrize("n", [1, 2, 3])
def test_rows_hold_every_opcode(n):
    for src in _every_opcode_fields(n):
        _assert_rows_hold(_tape.compile_tape(parse_field(src, n)))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_rows_hold_gradient_tapes(n):
    # f, d0 f, ... keep rows of their own, 0, 1, ... by first appearance;
    # that each row ends holding its root is checked through the values by
    # _assert_grads_are_partials
    for src in _every_opcode_fields(n):
        f = parse_field(src, n)
        tape = _tape.compile_outputs([f, *(f.diff(i) for i in range(n))])
        holder = _replay_rows(tape)
        assert len(tape.outputs) == n + 1
        assert list(dict.fromkeys(tape.outputs)) == list(range(len(set(tape.outputs))))
        assert len({holder[row] for row in tape.outputs}) == len(set(tape.outputs))


def test_rows_hold_random_gamma2_w_fields():
    rng = np.random.default_rng(23)
    for _ in range(50):
        dim = int(rng.integers(1, 4))
        p = random_problem(rng, dim)
        _assert_rows_hold(_tape.compile_tape(gamma2_w_field(p, random_smooth_field(rng, dim))))


def test_values_batch_memory_is_the_live_set():
    # one row per register would hold 2967 x 2048 doubles, 48.6 MB; the
    # chunk's rows are allocated in the traced thread
    ll_gw = _ll_gamma_w_3d()
    _tape.compile_tape(ll_gw)
    pts = np.random.default_rng(5).uniform(-1.0, 1.0, size=(2048, 3))
    tracemalloc.start()
    try:
        worker = threading.Thread(target=_tape.eval_values, args=(ll_gw, pts))
        worker.start()
        worker.join(timeout=60)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not worker.is_alive()
    assert 1e6 < peak < 16e6


def test_threads_keep_their_own_rows():
    # each call evaluates into rows of its own, so batches evaluated at once
    # in two threads match the same batches evaluated one by one
    rng = np.random.default_rng(7)
    pts = _edge_points(rng, 3000, 3)
    fields = [_ll_gamma_w_3d()] + [parse_field(src, 3) for src in _every_opcode_fields(3)]
    expected = [_tape.eval_values_grads(f, pts) for f in fields]
    results = {}

    def work(name, order):
        for _ in range(3):
            for i in order:
                results[name, i] = _tape.eval_values_grads(fields[i], pts)

    threads = [
        threading.Thread(target=work, args=("up", range(len(fields)))),
        threading.Thread(target=work, args=("down", range(len(fields) - 1, -1, -1))),
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not any(t.is_alive() for t in threads)
    for (_, i), got in results.items():
        for a, b in zip(got, expected[i]):
            assert np.array_equal(a, b, equal_nan=True)
    assert len(results) == 2 * len(fields)


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
# A point-major interpreter with one row per register, kept as the reference
# the values must match bit for bit
# ---------------------------------------------------------------------------


def _run_chunk_reference(tape, pts):
    m = pts.shape[0]
    k_regs = tape.n_registers
    reg = np.empty((k_regs, m))
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
            elif op == _tape.OP_ADD:
                reg[k] = reg[i1] + reg[i2]
            elif op == _tape.OP_SUB:
                reg[k] = reg[i1] - reg[i2]
            elif op == _tape.OP_MUL:
                reg[k] = reg[i1] * reg[i2]
            elif op == _tape.OP_DIV:
                flag(reg[i2] == 0.0, _tape.ERR_DIV)
                denom = np.where(reg[i2] == 0.0, 1.0, reg[i2])
                reg[k] = reg[i1] / denom
            elif op == _tape.OP_POW:
                reg[k] = _pow_reference(reg[i1], tape.consts[i2], err)
            elif op == _tape.OP_EXP:
                reg[k] = np.exp(reg[i1])
            elif op == _tape.OP_LOG:
                flag(reg[i1] <= 0.0, _tape.ERR_LOG)
                safe = np.where(reg[i1] <= 0.0, 1.0, reg[i1])
                reg[k] = np.log(safe)
            elif op == _tape.OP_SQRT:
                v = reg[i1]
                flag(v < 0.0, _tape.ERR_SQRT)
                reg[k] = np.where(v < 0.0, np.nan, np.sqrt(np.where(v < 0.0, 0.0, v)))
            elif op == _tape.OP_NORMSQ:
                reg[k] = np.einsum("ij,ij->i", pts, pts)
            else:  # OP_DOT
                c = tape.vecs[i1]
                reg[k] = pts @ c

        out = reg[k_regs - 1].copy()
        if not math.isfinite(out.sum()):
            flag(~np.isfinite(out), _tape.ERR_OVERFLOW)
    out[err != 0] = np.nan
    return out, err


def _pow_reference(v, e, err):
    ei = int(round(e))
    is_int = abs(e - ei) < 1e-12
    bad = ((v == 0.0) & (ei < 0)) if is_int else (v <= 0.0)
    err[bad & (err == 0)] = _tape.ERR_POW
    safe = np.where(bad, 1.0, v)
    val = safe**ei if is_int else safe**e
    return np.where(bad, np.nan, val)


def _eval_reference(f, pts):
    # chunked like the public entry points, so a batch crosses the same boundaries
    tape = _tape.compile_tape(f)
    parts = [_run_chunk_reference(tape, pts[lo:lo + _tape._CHUNK]) for lo in range(0, len(pts), _tape._CHUNK)]
    return np.concatenate([v for v, _ in parts]), np.concatenate([e for _, e in parts])


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
    vals, err = _tape.eval_values(f, pts)
    ref_vals, ref_err = _eval_reference(f, pts)
    assert np.array_equal(err, ref_err)
    assert np.array_equal(vals, ref_vals, equal_nan=True)
    _assert_grads_are_partials(f, pts)


def _assert_grads_are_partials(f, pts):
    """The gradient tape's outputs are the values of f and of each symbolic
    partial, bit for bit, on the rows where none of them has an error code;
    those rows, and only those, have a code, and read NaN throughout."""
    vals, grads, err = _tape.eval_values_grads(f, pts)
    assert grads.shape == pts.shape
    ref_vals, ok = _tape.eval_values(f, pts)
    ok = ok == 0
    partials = [_tape.eval_values(f.diff(i), pts) for i in range(f.dim)]
    for _, d_err in partials:
        ok &= d_err == 0
    assert np.array_equal(err != 0, ~ok)
    assert np.array_equal(vals[ok], ref_vals[ok])
    for i, (d_vals, _) in enumerate(partials):
        assert np.array_equal(grads[ok, i], d_vals[ok])
    assert np.isnan(vals[~ok]).all() and np.isnan(grads[~ok]).all()


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
    for err in (_tape.eval_values(f, pts)[1], _tape.eval_values_grads(f, pts)[2]):
        assert err.tolist() == [0, code, 0]
    _assert_matches_reference(f, pts)


def test_normsq_rounds_like_einsum():
    # rows from 1e-150 to 1e150, so squares run from underflow to overflow,
    # and rows of +0.0 and -0.0; n = 8 on takes einsum's eight-coordinate blocks
    for n in range(1, 11):
        rng = np.random.default_rng(3 + n)
        pts = rng.normal(size=(4000, n)) * np.logspace(-150, 150, 4000)[:, None]
        pts[:5] = 0.0
        pts[5:10] = -0.0
        pts[10:15] = rng.choice([0.0, -0.0], size=(5, n))
        ref = np.einsum("ij,ij->i", pts, pts)
        vals, err = _tape.eval_values(normsq_field(n), pts)
        ok = np.isfinite(ref)
        assert np.array_equal(err != 0, ~ok), n
        assert np.array_equal(vals[ok].view(np.int64), ref[ok].view(np.int64)), n
        assert np.array_equal(vals, _eval_reference(normsq_field(n), pts)[0], equal_nan=True), n
        if n == 3:
            # a column sum of squares in index order rounds differently
            column_sum = pts[:, 0] ** 2 + pts[:, 1] ** 2 + pts[:, 2] ** 2
            assert not np.array_equal(column_sum, ref)


# fields for the branches that skip work: literal constants, division by a
# constant, positive integer powers; and outputs that are constants
LITERAL_FIELDS = ["x0/3", "3/x0", "x0^3", "x0^-2", "x0^2.5", "2*x0 + 0.5", "x1", "2.5"]


def _special_points():
    edge = [0.0, -0.0, math.inf, -math.inf, math.nan, 1e200, -1e200, 1.5, -2.0]
    return np.array([(a, b) for a in edge for b in edge])


@pytest.mark.parametrize("src", LITERAL_FIELDS)
def test_literal_branches_match_reference(src):
    f = parse_field(src, 2)
    tape = _tape.compile_tape(f)
    if len(tape.ops) > 1:
        # every constant operand is a literal, with no row
        assert all(tape.slot[k] >= tape.n_slots for k, op in enumerate(tape.ops) if op == _tape.OP_CONST)
    _assert_matches_reference(f, _special_points())


def test_constant_outputs_match_reference():
    # d/dx1 of x1 is the constant output 1; the constant 2 is an output that
    # is also an operand, and a denominator
    fields = [parse_field(src, 2) for src in ("x1", "2*x0 + x1", "x0/2", "2", "1")]
    fields += [fields[0].diff(1), fields[1].diff(0)]
    tape = _tape.compile_outputs(fields)
    pts = _special_points()
    vals, err = _tape.eval_outputs(tape, pts)
    ok = err == 0
    ref_ok = np.ones(len(pts), dtype=bool)
    for k, f in enumerate(fields):
        ref_vals, ref_err = _eval_reference(f, pts)
        assert np.array_equal(vals[k, ok], ref_vals[ok])
        assert np.isnan(vals[k, ~ok]).all()
        ref_ok &= ref_err == 0
    # a code from any output flags the row for every output
    assert np.array_equal(ok, ref_ok)
    assert vals[-1, 0] == 2.0 and vals[-2, 0] == 1.0

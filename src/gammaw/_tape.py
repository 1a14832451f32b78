"""Batch evaluation of scalar fields over many points.

An expression DAG is flattened once into a register tape, one register per
distinct node, then a numpy interpreter runs the tape over a batch of points,
one opcode at a time, vectorized over chunks of points.  Values and
gradients share that one loop.  A register lives in a buffer row that is
reused after the register's last read, so the memory per chunk is the peak
live set of the tape, not its length: L(L GammaW(f)) in three dimensions has
2,971 registers and needs 174 rows, allocated afresh for each chunk.
Forward-mode gradients are held component-major,
``dreg[row, component, point]``, so each product of a value row with a
gradient runs over contiguous rows of points; every opcode writes into its
row through ufunc ``out=``, and only the CONST and COORD gradient rows are
zeroed.  The test suite pins the tape against the recursive evaluator and
the jets of :mod:`gammaw.field_expr`, and bit for bit against the
point-major interpreter it replaced.

Domain violations do not raise here; each point gets an error code (0 ok,
1 division by zero, 2 log domain, 3 sqrt domain, 4 power domain, 5 overflow)
and a NaN value, so callers can skip or report bad points in bulk.  A point
whose value, or in gradient mode whose gradient, is not finite and that has
no other code gets code 5.  DIV, LOG, SQRT and POW build their masked
operands only when the chunk has a bad row, so a row without errors gets
the same bits either way.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .field_expr import (
    Add,
    Const,
    Coord,
    Div,
    Dot,
    Exp,
    Log,
    Mul,
    Node,
    NormSq,
    Pow,
    ScalarField,
    Sqrt,
    Sub,
)

__all__ = ["Tape", "compile_tape", "eval_values", "eval_values_grads", "backend_name"]

OP_CONST = 0
OP_COORD = 1
OP_ADD = 2
OP_SUB = 3
OP_MUL = 4
OP_DIV = 5
OP_POW = 6
OP_EXP = 7
OP_LOG = 8
OP_SQRT = 9
OP_NORMSQ = 10
OP_DOT = 11

# how many of an opcode's operands are registers (a1, then a2); the others
# index the literal pool, the coordinates or the dot-product rows
_READS = (0, 0, 2, 2, 2, 2, 1, 1, 1, 1, 0, 0)

ERR_NONE = 0
ERR_DIV = 1
ERR_LOG = 2
ERR_SQRT = 3
ERR_POW = 4
ERR_OVERFLOW = 5

_ERR_TEXT = {
    ERR_DIV: "division by zero",
    ERR_LOG: "log outside its domain",
    ERR_SQRT: "sqrt outside its domain",
    ERR_POW: "power outside its domain",
    ERR_OVERFLOW: "overflow",
}


def err_message(code: int) -> str:
    return _ERR_TEXT.get(int(code), f"unknown error code {code}")


@dataclass
class Tape:
    """Flattened expression: one register per distinct node, each held in a
    buffer row that later registers reuse after its last read."""

    ops: list[int]  # (K,) opcodes
    a1: list[int]  # (K,) first operand (register or table index)
    a2: list[int]  # (K,) second operand
    consts: list[float]  # literal pool (values and exponents)
    vecs: np.ndarray  # (V, dim) float64 dot-product coefficient rows
    dim: int
    slot: list[int]  # (K,) buffer row of each register
    n_slots: int  # rows a chunk allocates

    @property
    def n_registers(self) -> int:
        return len(self.ops)


def compile_tape(f: ScalarField) -> Tape:
    """Flatten ``f`` into a tape, one register per distinct node.

    Nodes are interned, so deduplication is an identity lookup.  Each
    register lives in a buffer row that is reused after the register's last
    read, so the memory per chunk is the peak live set, not the tape length.
    No op's row is one of its operands' rows, and the root keeps row 0.  The
    result is cached on the field, which is safe because fields are
    immutable.
    """
    if f._tape is not None:
        return f._tape
    ops: list[int] = []
    a1: list[int] = []
    a2: list[int] = []
    consts: list[float] = []
    vecs: list[tuple[float, ...]] = []
    seen: dict[Node, int] = {}

    def emit(op: int, x1: int = 0, x2: int = 0) -> int:
        ops.append(op)
        a1.append(x1)
        a2.append(x2)
        return len(ops) - 1

    def pool(c: float) -> int:
        consts.append(float(c))
        return len(consts) - 1

    def visit(n: Node) -> int:
        reg = seen.get(n)
        if reg is not None:
            return reg
        t = type(n)
        if t is Mul:
            reg = emit(OP_MUL, visit(n.a), visit(n.b))
        elif t is Add:
            reg = emit(OP_ADD, visit(n.a), visit(n.b))
        elif t is Const:
            reg = emit(OP_CONST, pool(n.c))
        elif t is Coord:
            reg = emit(OP_COORD, n.i)
        elif t is Sub:
            reg = emit(OP_SUB, visit(n.a), visit(n.b))
        elif t is Div:
            reg = emit(OP_DIV, visit(n.a), visit(n.b))
        elif t is Pow:
            reg = emit(OP_POW, visit(n.a), pool(n.expo))
        elif t is Exp:
            reg = emit(OP_EXP, visit(n.a))
        elif t is Log:
            reg = emit(OP_LOG, visit(n.a))
        elif t is Sqrt:
            reg = emit(OP_SQRT, visit(n.a))
        elif t is NormSq:
            reg = emit(OP_NORMSQ)
        elif t is Dot:
            vecs.append(n.coeffs)
            reg = emit(OP_DOT, len(vecs) - 1)
        else:
            raise TypeError(f"unknown node {n!r}")
        seen[n] = reg
        return reg

    visit(f.root)
    # one backward scan over the ops: a register takes a free row at its last
    # read, the first one met going backward, and gives the row back at its
    # own op, after that op's operands have taken theirs, so no op writes a
    # row it reads; the root, which nothing reads, holds row 0 from the start
    slot = [-1] * len(ops)
    slot[-1] = 0
    free: list[int] = []
    fresh = itertools.count(1)
    for k in range(len(ops) - 1, -1, -1):
        reads = _READS[ops[k]]
        if reads:
            if slot[a1[k]] < 0:
                slot[a1[k]] = free.pop() if free else next(fresh)
            if reads == 2 and slot[a2[k]] < 0:
                slot[a2[k]] = free.pop() if free else next(fresh)
        free.append(slot[k])
    tape = Tape(
        ops=ops,
        a1=a1,
        a2=a2,
        consts=consts,
        vecs=np.asarray(vecs, dtype=np.float64).reshape(len(vecs), f.dim)
        if vecs
        else np.zeros((0, f.dim)),
        dim=f.dim,
        slot=slot,
        n_slots=next(fresh),
    )
    f._tape = tape
    return tape


def backend_name() -> str:
    """Name of the batch evaluator; the numpy interpreter is the only one."""
    return "numpy"


def eval_values(f: ScalarField, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate ``f`` at each row of ``pts``; returns (values, error codes)."""
    out, _, err = _run(f, pts, want_grads=False)
    return out, err


def eval_values_grads(f: ScalarField, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Evaluate values and gradients of ``f`` at each row of ``pts``."""
    return _run(f, pts, want_grads=True)


def _as_points(pts: np.ndarray, dim: int) -> np.ndarray:
    pts = np.ascontiguousarray(np.atleast_2d(np.asarray(pts, dtype=np.float64)))
    if pts.shape[1] != dim:
        raise ValueError(f"points have dimension {pts.shape[1]}, expected {dim}")
    return pts


# ---------------------------------------------------------------------------
# numpy interpreter: vectorized over chunks of points
# ---------------------------------------------------------------------------

_CHUNK = 8192


def _run(f: ScalarField, pts: np.ndarray, want_grads: bool):
    tape = compile_tape(f)
    pts = _as_points(pts, tape.dim)
    m, n = pts.shape
    out = np.empty(m)
    grads = np.empty((m, n)) if want_grads else None
    err = np.zeros(m, dtype=np.int64)
    for lo in range(0, m, _CHUNK):
        hi = min(lo + _CHUNK, m)
        out[lo:hi], g, err[lo:hi] = _run_chunk(tape, pts[lo:hi], want_grads)
        if want_grads:
            for i in range(n):  # a column at a time: g[:, i] is one contiguous row of the chunk
                grads[lo:hi, i] = g[:, i]
        del g  # frees the chunk's gradient rows before the next chunk allocates its own
    return out, grads, err


def _run_chunk(tape: Tape, pts: np.ndarray, want_grads: bool):
    m, n = pts.shape
    S = tape.slot
    rows = tape.n_slots
    R = list(np.empty((rows, m)))
    if want_grads:
        # component-major: dreg[s, i] is d reg[s] / dx_i; tmp holds MUL's
        # second product and du the derivative of a unary op
        D = list(np.empty((rows, n, m)))
        tmp, du = np.empty((n, m)), np.empty(m)
    err = np.zeros(m, dtype=np.int64)

    def flag(bad: np.ndarray, code: int) -> None:
        fresh = bad & (err == 0)
        err[fresh] = code

    with np.errstate(all="ignore"):
        # k is the op's row; each branch maps its register operands to rows
        for op, k, i1, i2 in zip(tape.ops, S, tape.a1, tape.a2):
            r = R[k]
            if op == OP_CONST:
                r.fill(tape.consts[i1])
                if want_grads:
                    D[k].fill(0.0)
            elif op == OP_COORD:
                r[:] = pts[:, i1]
                if want_grads:
                    D[k].fill(0.0)
                    D[k][i1] = 1.0
            elif op == OP_ADD:
                i1, i2 = S[i1], S[i2]
                np.add(R[i1], R[i2], out=r)
                if want_grads:
                    np.add(D[i1], D[i2], out=D[k])
            elif op == OP_SUB:
                i1, i2 = S[i1], S[i2]
                np.subtract(R[i1], R[i2], out=r)
                if want_grads:
                    np.subtract(D[i1], D[i2], out=D[k])
            elif op == OP_MUL:
                i1, i2 = S[i1], S[i2]
                np.multiply(R[i1], R[i2], out=r)
                if want_grads:
                    np.multiply(R[i1], D[i2], out=D[k])
                    np.multiply(R[i2], D[i1], out=tmp)
                    np.add(D[k], tmp, out=D[k])
            elif op == OP_DIV:
                i1, i2 = S[i1], S[i2]
                denom = R[i2]
                bad = denom == 0.0
                if bad.any():
                    flag(bad, ERR_DIV)
                    denom = np.where(bad, 1.0, denom)
                np.divide(R[i1], denom, out=r)
                if want_grads:
                    np.multiply(r, D[i2], out=D[k])
                    np.subtract(D[i1], D[k], out=D[k])
                    np.divide(D[k], denom, out=D[k])
            elif op == OP_POW:
                i1 = S[i1]
                _pow(R[i1], tape.consts[i2], r, du if want_grads else None, flag)
                if want_grads:
                    np.multiply(du, D[i1], out=D[k])
            elif op == OP_EXP:
                i1 = S[i1]
                np.exp(R[i1], out=r)
                if want_grads:
                    np.multiply(r, D[i1], out=D[k])
            elif op == OP_LOG:
                i1 = S[i1]
                safe = R[i1]
                bad = safe <= 0.0
                if bad.any():
                    flag(bad, ERR_LOG)
                    safe = np.where(bad, 1.0, safe)
                np.log(safe, out=r)
                if want_grads:
                    np.divide(D[i1], safe, out=D[k])
            elif op == OP_SQRT:
                i1 = S[i1]
                # sqrt has a value at 0 but no derivative there
                v = R[i1]
                bad = (v <= 0.0) if want_grads else (v < 0.0)
                if bad.any():
                    flag(bad, ERR_SQRT)
                    r[:] = np.where(v < 0.0, np.nan, np.sqrt(np.where(v < 0.0, 0.0, v)))
                    root = np.sqrt(np.where(v <= 0.0, 1.0, v))
                else:
                    root = np.sqrt(v, out=r)
                if want_grads:
                    np.divide(0.5, root, out=du)
                    np.multiply(du, D[i1], out=D[k])
            elif op == OP_NORMSQ:
                # einsum, not a column sum: the two round differently for n = 3
                np.einsum("ij,ij->i", pts, pts, out=r)
                if want_grads:
                    np.multiply(pts.T, 2.0, out=D[k])
            else:  # OP_DOT
                c = tape.vecs[i1]
                np.matmul(pts, c, out=r)
                if want_grads:
                    D[k][:] = c[:, None]

        # the root's row, a view of this chunk's rows: _run copies it out
        out = R[0]
        g = D[0].T if want_grads else None
        # one sum tells whether any row is not finite (a sum that overflows
        # trips it too, harmlessly); only then are the rows scanned
        if not math.isfinite(out.sum() + (g.sum() if want_grads else 0.0)):
            overflow = ~np.isfinite(out)
            if want_grads:
                overflow |= ~np.isfinite(g).all(axis=1)
            flag(overflow, ERR_OVERFLOW)
    bad = err != 0
    out[bad] = np.nan
    if want_grads:
        g[bad] = np.nan
    return out, g, err


def _pow(v: np.ndarray, e: float, out: np.ndarray, du: np.ndarray | None, flag) -> None:
    """v**e into ``out`` and, when ``du`` is given, e*v**(e-1) into it."""
    # constant folding guarantees the tape never holds integer exponents 0 or 1
    ei = int(round(e))
    is_int = abs(e - ei) < 1e-12
    bad = ((v == 0.0) & (ei < 0)) if is_int else (v <= 0.0)
    expo = ei if is_int else e
    safe = v
    if bad.any():
        flag(bad, ERR_POW)
        safe = np.where(bad, 1.0, v)
    # in-place ** takes numpy's scalar-power shortcuts exactly as safe**expo does
    out[:] = safe
    out **= expo
    if du is not None:
        du[:] = safe
        du **= expo - 1
        du *= float(e)
    if safe is not v:
        out[bad] = np.nan
        if du is not None:
            du[bad] = np.nan

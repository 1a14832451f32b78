"""Batch evaluation of scalar fields over many points.

A list of fields is flattened once into one register tape, one register per
distinct node, with one output per field; then a numpy interpreter runs the
tape over a batch of points, one opcode at a time, vectorized over chunks of
points, each opcode writing into its row through ufunc ``out=``.  There is
one interpreter loop, for values only.  Gradients are more outputs: the
gradient tape of f has the roots f, d0 f, ..., d(n-1) f, the symbolic
partials of :meth:`ScalarField.diff`, which share their registers with f
because nodes are interned; Hessian entries are outputs the same way.  A
register lives in a buffer row that is reused after the register's last
read, so the memory per chunk is the peak live set of the tape, not its
length: L(L GammaW(f)) in three dimensions has 2,967 registers and needs 169
rows, allocated afresh for each chunk.  Each root holds its own row from its
op to the end of the tape.  A constant that is not a root takes no row and
no fill: the ops that read it take it from the literal pool as a Python
float, the same IEEE operand as a filled row, so the bits are the same.  The
literal pool is finite, because :mod:`gammaw.field_expr` raises on a
constant, exponent or dot coefficient that is not.  The test suite pins the
values against the recursive evaluator, the jets of :mod:`gammaw.field_expr`
and, bit for bit, a point-major reference interpreter that fills every
constant, masks every domain and sums normsq with einsum, and each gradient
column bit for bit against the values of that partial's own tape.

Domain violations do not raise here; each point gets an error code (0 ok,
1 division by zero, 2 log domain, 3 sqrt domain, 4 power domain, 5 overflow)
and a NaN in every output, so callers can skip or report bad points in bulk.
An op's code flags the point for every output of the tape, and a point where
some output is not finite and that has no other code gets code 5.  So sqrt
at 0 has the value 0, but its gradient tape flags code 1, from the division
in d sqrt(u) = du / (2 sqrt(u)).  DIV, LOG, SQRT and POW build their masked
operands only when the chunk has a bad row, so a row without errors gets the
same bits either way.  A scan that cannot fire is not run: a division by a
constant has no zero to look for (``field_expr._div`` raises on a constant
zero), a positive integer power has no domain edge, and the outputs are
scanned for codes only when some chunk flagged a row.  Every other DIV, LOG,
SQRT and POW scans its operand.  NORMSQ sums the squares in two lanes, the
even and the odd coordinates, in the order np.einsum("ij,ij->i") takes them,
so it rounds as einsum does at the cost of a few multiplies and adds.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
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
    _as_int_exponent,
)

__all__ = [
    "Tape",
    "compile_tape",
    "compile_outputs",
    "eval_values",
    "eval_values_grads",
    "eval_outputs",
    "backend_name",
]

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
    buffer row that later registers reuse after its last read (a constant
    that is not a root is a literal and holds none), and one or more
    outputs, each the row of a root."""

    ops: list[int]  # (K,) opcodes
    a1: list[int]  # (K,) first operand (register or table index)
    a2: list[int]  # (K,) second operand
    consts: list[float]  # literal pool (values and exponents)
    vecs: np.ndarray  # (V, dim) float64 dot-product coefficient rows
    dim: int
    slot: list[int]  # (K,) buffer row of each register; n_slots + pool index for a literal
    n_slots: int  # rows a chunk allocates
    outputs: list[int]  # buffer row of each root, in the order given

    @property
    def n_registers(self) -> int:
        return len(self.ops)


def compile_tape(f: ScalarField) -> Tape:
    """The one-output tape of ``f``, cached on the field, which is safe
    because fields are immutable."""
    if f._tape is None:
        f._tape = compile_outputs([f])
    return f._tape


def compile_outputs(fields: Sequence[ScalarField]) -> Tape:
    """Flatten ``fields`` into one tape, one register per distinct node and
    one output per field.

    Nodes are interned, so deduplication is an identity lookup, and fields
    that share subexpressions (a field and its symbolic partials, say) share
    their registers.  Each register lives in a buffer row that is reused
    after the register's last read, so the memory per chunk is the peak live
    set, not the tape length.  No op's row is one of its operands' rows.
    Each distinct root holds a row of its own, rows 0, 1, ... in order of
    first appearance, from its op to the end of the tape.  Not cached.
    """
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

    roots = [visit(f.root) for f in fields]
    # one backward scan over the ops: a register takes a free row at its last
    # read, the first one met going backward, and gives the row back at its
    # own op, after that op's operands have taken theirs, so no op writes a
    # row it reads; the roots, read at the end, hold their rows from the start.
    # A constant that is not a root takes no row: it is a literal operand,
    # and its slot indexes past the rows into the literal pool, which the
    # interpreter appends to them
    slot = [-1] * len(ops)
    distinct = dict.fromkeys(roots)
    for row, reg in enumerate(distinct):
        slot[reg] = row
    free: list[int] = []
    fresh = itertools.count(len(distinct))
    for k in range(len(ops) - 1, -1, -1):
        if slot[k] < 0:  # a literal
            continue
        reads = _READS[ops[k]]
        if reads:
            if slot[a1[k]] < 0 and ops[a1[k]] != OP_CONST:
                slot[a1[k]] = free.pop() if free else next(fresh)
            if reads == 2 and slot[a2[k]] < 0 and ops[a2[k]] != OP_CONST:
                slot[a2[k]] = free.pop() if free else next(fresh)
        free.append(slot[k])
    n_slots = next(fresh)
    for k in range(len(ops)):
        if slot[k] < 0:
            slot[k] = n_slots + a1[k]
    dim = fields[0].dim
    return Tape(
        ops=ops,
        a1=a1,
        a2=a2,
        consts=consts,
        vecs=np.asarray(vecs, dtype=np.float64).reshape(len(vecs), dim) if vecs else np.zeros((0, dim)),
        dim=dim,
        slot=slot,
        n_slots=n_slots,
        outputs=[slot[reg] for reg in roots],
    )


def backend_name() -> str:
    """Name of the batch evaluator; the numpy interpreter is the only one."""
    return "numpy"


def eval_values(f: ScalarField, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate ``f`` at each row of ``pts``; returns (values, error codes)."""
    pts = _as_points(pts, f.dim)
    out = np.empty(len(pts))
    return out, _run_tape(compile_tape(f), pts, [out])


def eval_values_grads(f: ScalarField, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Evaluate values and gradients of ``f`` at each row of ``pts``: the
    outputs of one tape whose roots are f and its symbolic partials, cached
    on the field."""
    if f._grad_tape is None:
        f._grad_tape = compile_outputs([f, *(f.diff(i) for i in range(f.dim))])
    pts = _as_points(pts, f.dim)
    out = np.empty(len(pts))
    grads = np.empty(pts.shape)
    # the partials go straight into the columns of the gradient array
    return out, grads, _run_tape(f._grad_tape, pts, [out, *grads.T])


def eval_outputs(tape: Tape, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate every output of ``tape`` at each row of ``pts``; returns
    (values (outputs, points), error codes)."""
    pts = _as_points(pts, tape.dim)
    vals = np.empty((len(tape.outputs), len(pts)))
    return vals, _run_tape(tape, pts, vals)


def _as_points(pts: np.ndarray, dim: int) -> np.ndarray:
    pts = np.ascontiguousarray(np.atleast_2d(np.asarray(pts, dtype=np.float64)))
    if pts.shape[1] != dim:
        raise ValueError(f"points have dimension {pts.shape[1]}, expected {dim}")
    return pts


# ---------------------------------------------------------------------------
# numpy interpreter: vectorized over chunks of points
# ---------------------------------------------------------------------------

_CHUNK = 8192


def _run_tape(tape: Tape, pts: np.ndarray, dests) -> np.ndarray:
    """Run ``tape`` over ``pts`` a chunk at a time, writing output k into the
    (points,) array ``dests[k]``; returns the error codes.  A point with a
    nonzero code reads NaN in every output."""
    err = np.zeros(len(pts), dtype=np.int64)
    flagged = False
    with np.errstate(all="ignore"):
        for lo in range(0, len(pts), _CHUNK):
            hi = lo + _CHUNK
            flagged |= _run_chunk(tape, pts[lo:hi], [d[lo:hi] for d in dests], err[lo:hi])
    if flagged:
        bad = err != 0
        for d in dests:
            d[bad] = np.nan
    return err


def _run_chunk(tape: Tape, pts: np.ndarray, dests, err: np.ndarray) -> bool:
    """Run ``tape`` over one chunk; returns False when no row was flagged."""
    S = tape.slot
    n = tape.n_slots
    # rows 0..n-1, then the literal pool as Python floats: a literal operand
    # is the same IEEE operand as a row filled with it
    rows = np.empty((n, pts.shape[0]))
    R = [*rows, *tape.consts]
    flagged = False

    def flag(bad: np.ndarray, code: int) -> None:
        nonlocal flagged
        flagged = True
        fresh = bad & (err == 0)
        err[fresh] = code

    # k is the op's row; each branch maps its register operands to rows
    for op, k, i1, i2 in zip(tape.ops, S, tape.a1, tape.a2):
        r = R[k]
        if op == OP_CONST:
            if k < n:  # a root; every other constant is a literal
                r.fill(tape.consts[i1])
        elif op == OP_COORD:
            r[:] = pts[:, i1]
        elif op == OP_ADD:
            np.add(R[S[i1]], R[S[i2]], out=r)
        elif op == OP_SUB:
            np.subtract(R[S[i1]], R[S[i2]], out=r)
        elif op == OP_MUL:
            np.multiply(R[S[i1]], R[S[i2]], out=r)
        elif op == OP_DIV:
            denom = R[S[i2]]
            # a constant denominator is never 0: field_expr._div raises on one
            if tape.ops[i2] != OP_CONST:
                bad = denom == 0.0
                if bad.any():
                    flag(bad, ERR_DIV)
                    denom = np.where(bad, 1.0, denom)
            np.divide(R[S[i1]], denom, out=r)
        elif op == OP_POW:
            _pow(R[S[i1]], tape.consts[i2], r, flag)
        elif op == OP_EXP:
            np.exp(R[S[i1]], out=r)
        elif op == OP_LOG:
            safe = R[S[i1]]
            bad = safe <= 0.0
            if bad.any():
                flag(bad, ERR_LOG)
                safe = np.where(bad, 1.0, safe)
            np.log(safe, out=r)
        elif op == OP_SQRT:
            v = R[S[i1]]
            bad = v < 0.0
            if bad.any():
                flag(bad, ERR_SQRT)
                r[:] = np.where(bad, np.nan, np.sqrt(np.where(bad, 0.0, v)))
            else:
                np.sqrt(v, out=r)
        elif op == OP_NORMSQ:
            _normsq(pts, r)
        else:  # OP_DOT
            np.matmul(pts, tape.vecs[i1], out=r)

    # the distinct roots hold rows 0, 1, ...: one sum over them tells
    # whether any output is not finite (a sum that overflows trips it
    # too, harmlessly); only then are the rows scanned
    roots = rows[: max(tape.outputs) + 1]
    if not math.isfinite(roots.sum()):
        flag(~np.isfinite(roots).all(axis=0), ERR_OVERFLOW)
    for d, k in zip(dests, tape.outputs):
        d[:] = rows[k]
    return flagged


def _normsq(pts: np.ndarray, out: np.ndarray) -> None:
    """Row sums of squares into ``out``, rounded as np.einsum("ij,ij->i")
    rounds them: two lanes, the even and the odd coordinates, each summing
    its squares in the order of einsum's two-double vector loop (each block
    of eight coordinates from its last pair back to its first, then the
    pairs after the last block in order), then the even lane plus the odd."""
    dim = pts.shape[1]
    full = dim - dim % 8
    evens = [b + j for b in range(0, full, 8) for j in (6, 4, 2, 0)] + list(range(full, dim, 2))
    odds = [i + 1 for i in evens if i + 1 < dim]

    def square(i: int) -> np.ndarray:
        c = pts[:, i]
        return c * c

    np.multiply(pts[:, evens[0]], pts[:, evens[0]], out=out)
    for i in evens[1:]:
        out += square(i)
    if odds:
        odd = square(odds[0])
        for i in odds[1:]:
            odd += square(i)
        out += odd


def _pow(v: np.ndarray, e: float, out: np.ndarray, flag) -> None:
    """v**e into ``out``."""
    # constant folding guarantees the tape never holds integer exponents 0 or 1
    k = _as_int_exponent(e)
    safe = v
    # a positive integer power has no domain to check
    if k is None or k < 0:
        bad = (v <= 0.0) if k is None else (v == 0.0)
        if bad.any():
            flag(bad, ERR_POW)
            safe = np.where(bad, 1.0, v)
    # in-place ** takes numpy's scalar-power shortcuts exactly as safe**expo does
    out[:] = safe
    out **= e if k is None else k
    if safe is not v:
        out[bad] = np.nan

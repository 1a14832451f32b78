"""Batch evaluation of scalar fields over many points.

An expression DAG is flattened once into a register tape, one register per
distinct node, then a numpy interpreter runs the tape over a batch of points,
one opcode at a time, vectorized over chunks of points.  Values and
gradients share that one driver.  The test suite pins the tape against the
recursive evaluator and the jets of :mod:`gammaw.field_expr`.

Domain violations do not raise here; each point gets an error code (0 ok,
1 division by zero, 2 log domain, 3 sqrt domain, 4 power domain, 5 overflow)
and a NaN value, so callers can skip or report bad points in bulk.  A point
whose value, or in gradient mode whose gradient, is not finite and that has
no other code gets code 5.
"""

from __future__ import annotations

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
    """Flattened expression: one register per distinct node."""

    ops: np.ndarray  # (K,) int64 opcodes
    a1: np.ndarray  # (K,) int64 first operand (register or table index)
    a2: np.ndarray  # (K,) int64 second operand
    consts: np.ndarray  # (C,) float64 literal pool (values and exponents)
    vecs: np.ndarray  # (V, dim) float64 dot-product coefficient rows
    dim: int

    @property
    def n_registers(self) -> int:
        return int(self.ops.shape[0])


def compile_tape(f: ScalarField) -> Tape:
    """Flatten ``f`` into a tape, one register per distinct node.

    Nodes are interned, so deduplication is an identity lookup.  The
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
        if isinstance(n, Const):
            reg = emit(OP_CONST, pool(n.c))
        elif isinstance(n, Coord):
            reg = emit(OP_COORD, n.i)
        elif isinstance(n, Add):
            reg = emit(OP_ADD, visit(n.a), visit(n.b))
        elif isinstance(n, Sub):
            reg = emit(OP_SUB, visit(n.a), visit(n.b))
        elif isinstance(n, Mul):
            reg = emit(OP_MUL, visit(n.a), visit(n.b))
        elif isinstance(n, Div):
            reg = emit(OP_DIV, visit(n.a), visit(n.b))
        elif isinstance(n, Pow):
            reg = emit(OP_POW, visit(n.a), pool(n.expo))
        elif isinstance(n, Exp):
            reg = emit(OP_EXP, visit(n.a))
        elif isinstance(n, Log):
            reg = emit(OP_LOG, visit(n.a))
        elif isinstance(n, Sqrt):
            reg = emit(OP_SQRT, visit(n.a))
        elif isinstance(n, NormSq):
            reg = emit(OP_NORMSQ)
        elif isinstance(n, Dot):
            vecs.append(n.coeffs)
            reg = emit(OP_DOT, len(vecs) - 1)
        else:
            raise TypeError(f"unknown node {n!r}")
        seen[n] = reg
        return reg

    visit(f.root)
    tape = Tape(
        ops=np.asarray(ops, dtype=np.int64),
        a1=np.asarray(a1, dtype=np.int64),
        a2=np.asarray(a2, dtype=np.int64),
        consts=np.asarray(consts if consts else [0.0], dtype=np.float64),
        vecs=np.asarray(vecs, dtype=np.float64).reshape(len(vecs), f.dim)
        if vecs
        else np.zeros((0, f.dim)),
        dim=f.dim,
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
            grads[lo:hi] = g
    return out, grads, err


def _run_chunk(tape: Tape, pts: np.ndarray, want_grads: bool):
    m, n = pts.shape
    k_regs = tape.n_registers
    reg = np.empty((k_regs, m))
    dreg = np.zeros((k_regs, m, n)) if want_grads else None
    err = np.zeros(m, dtype=np.int64)

    def flag(bad: np.ndarray, code: int) -> None:
        fresh = bad & (err == 0)
        err[fresh] = code

    with np.errstate(all="ignore"):
        for k in range(k_regs):
            op = int(tape.ops[k])
            i1, i2 = int(tape.a1[k]), int(tape.a2[k])
            if op == OP_CONST:
                reg[k] = tape.consts[i1]
            elif op == OP_COORD:
                reg[k] = pts[:, i1]
                if want_grads:
                    dreg[k, :, i1] = 1.0
            elif op == OP_ADD:
                reg[k] = reg[i1] + reg[i2]
                if want_grads:
                    dreg[k] = dreg[i1] + dreg[i2]
            elif op == OP_SUB:
                reg[k] = reg[i1] - reg[i2]
                if want_grads:
                    dreg[k] = dreg[i1] - dreg[i2]
            elif op == OP_MUL:
                reg[k] = reg[i1] * reg[i2]
                if want_grads:
                    dreg[k] = reg[i1][:, None] * dreg[i2] + reg[i2][:, None] * dreg[i1]
            elif op == OP_DIV:
                flag(reg[i2] == 0.0, ERR_DIV)
                denom = np.where(reg[i2] == 0.0, 1.0, reg[i2])
                reg[k] = reg[i1] / denom
                if want_grads:
                    dreg[k] = (dreg[i1] - reg[k][:, None] * dreg[i2]) / denom[:, None]
            elif op == OP_POW:
                reg[k], u1 = _pow_numpy(reg[i1], tape.consts[i2], err)
                if want_grads:
                    dreg[k] = u1[:, None] * dreg[i1]
            elif op == OP_EXP:
                reg[k] = np.exp(reg[i1])
                if want_grads:
                    dreg[k] = reg[k][:, None] * dreg[i1]
            elif op == OP_LOG:
                flag(reg[i1] <= 0.0, ERR_LOG)
                safe = np.where(reg[i1] <= 0.0, 1.0, reg[i1])
                reg[k] = np.log(safe)
                if want_grads:
                    dreg[k] = dreg[i1] / safe[:, None]
            elif op == OP_SQRT:
                v = reg[i1]
                flag(v < 0.0, ERR_SQRT)
                if want_grads:
                    flag(v == 0.0, ERR_SQRT)
                safe = np.where(v <= 0.0, 1.0, v)
                reg[k] = np.where(v < 0.0, np.nan, np.sqrt(np.where(v < 0.0, 0.0, v)))
                if want_grads:
                    dreg[k] = (0.5 / np.sqrt(safe))[:, None] * dreg[i1]
            elif op == OP_NORMSQ:
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


def _pow_numpy(v: np.ndarray, e: float, err: np.ndarray):
    # constant folding guarantees the tape never holds integer exponents 0 or 1
    ei = int(round(e))
    is_int = abs(e - ei) < 1e-12
    bad = ((v == 0.0) & (ei < 0)) if is_int else (v <= 0.0)
    err[bad & (err == 0)] = ERR_POW
    safe = np.where(bad, 1.0, v)
    if is_int:
        val = safe**ei
        u1 = float(e) * safe ** (ei - 1)
    else:
        val = safe**e
        u1 = e * safe ** (e - 1.0)
    return np.where(bad, np.nan, val), np.where(bad, np.nan, u1)

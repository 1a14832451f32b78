"""Scalar fields on R^n: a small expression language with exact derivatives.

A :class:`ScalarField` is an immutable hash-consed expression DAG over the
grammar

    numbers, x0..x{n-1}, + - * / ^, exp() log() sqrt(), normsq(x), dot(c,x)

where ``^`` takes a real constant exponent and ``c`` is a literal vector.
Each structure has one live node object, so a subexpression that recurs is
stored, evaluated and differentiated once per call, and the same (node,
coordinate) always differentiates to the same node.  That is what lets the
builders of :mod:`gammaw.gamma_calculus` share one derivative memo per
coordinate across a whole builder call without changing any DAG.  A node
takes ``max_coord`` and ``dot_lens`` from its 0, 1 or 2 children.  A fresh
node is built in one step by the constructor of its arity: Add, Sub, Mul and
Div by ``_binary``, Exp, Log and Sqrt by ``_unary``.  The recursive walkers
(value, jet, ``diff`` and the tape compiler's) dispatch inline on
``type(node)``, one Python frame per DAG level, so the deepest field they
take is set by the interpreter's recursion limit (1000 by default).
Every field is C-infinity on its domain and the family is closed under
symbolic differentiation, so quantities like L f = tr Hess f - grad U . grad f
and iterated applications L(Lf) stay first-class fields.

Two independent derivative routes are provided:

* ``f.diff(i)`` builds the symbolic partial derivative as a new field;
* :meth:`ScalarField.jet` propagates truncated Taylor coefficients (value,
  gradient, Hessian) through the tree, i.e. second-order forward-mode AD.

:func:`finite_diff_jet` is a third, deliberately naive route used as a test
oracle only.

Domain policy: evaluating or differentiating past the boundary of a log /
sqrt / fractional power raises :class:`DomainError` instead of propagating
NaN, so downstream infimum searches never chase fake minima.  A point value
or jet whose exp or power overflows, a folded constant that is not finite,
and a constant, power exponent or dot coefficient given as a float that is
not finite, raise :class:`DomainError` too; a number literal that is not
finite (``1e400``) is a :class:`ParseError`.  So every number a field holds
is finite.

The grammar of the text language is one table, ``_BINARY_OPS`` for the
operators and ``_FUNCTIONS`` for exp, log and sqrt.  The parser reads it to
build nodes and :meth:`ScalarField.to_text` to print them, so printed text
parses back to the same interned node.
"""

from __future__ import annotations

import math
import re
import struct
import weakref
from contextlib import contextmanager
from dataclasses import dataclass, field as dc_field
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "FieldError",
    "ParseError",
    "DomainError",
    "ScalarField",
    "Jet",
    "ProblemSpec",
    "parse_field",
    "finite_diff_jet",
    "const_field",
    "coord_field",
    "normsq_field",
    "dot_field",
]


class FieldError(Exception):
    """Base class for scalar-field errors."""


class ParseError(FieldError):
    """Syntax or semantic error in field source text, with a position."""

    def __init__(self, message: str, position: int):
        # both arguments stay in ``args``, so the error pickles back whole
        super().__init__(message, position)
        self.position = position

    def __str__(self) -> str:
        return f"{self.args[0]} (at position {self.position})"


class DomainError(FieldError):
    """Evaluation or differentiation left the field's domain."""


# ---------------------------------------------------------------------------
# Expression nodes: a hash-consed DAG
# ---------------------------------------------------------------------------

# Hash-consing (Filliatre & Conchon, "Type-safe modular hash-consing", 2006):
# one live node per key.  Keys hold children by identity and the floats of
# Const and Dot by their bits, so 0.0 and -0.0 stay distinct.  Each entry is a
# weak reference that carries its key, so a dead node's callback removes
# exactly its own entry.
class _Ref(weakref.ref):
    __slots__ = ("key",)


_NODES: dict[tuple, _Ref] = {}


def _forget(ref: _Ref, table: dict = _NODES) -> None:
    if table.get(ref.key) is ref:
        del table[ref.key]


class Node:
    """Immutable interned node; equality and hashing are identity.

    ``max_coord`` (highest coordinate index beneath, -1 if none) and
    ``dot_lens`` (distinct Dot lengths beneath) let a field check its root in O(1).
    """

    __slots__ = ("max_coord", "dot_lens", "__weakref__")

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")


# Constructors write a node's slots once, through the slot descriptors.
_set_max_coord = Node.max_coord.__set__
_set_dot_lens = Node.dot_lens.__set__


def _fresh(cls: type, key: tuple, max_coord: int, dot_lens: tuple) -> Node:
    """A new node of ``cls`` in the table under ``key``; the caller sets its own fields."""
    node = object.__new__(cls)
    _set_max_coord(node, max_coord)
    _set_dot_lens(node, dot_lens)
    ref = _Ref(node, _forget)
    ref.key = key
    _NODES[key] = ref
    return node


# The two hot constructors, called directly by the smart constructors.
def _binary(cls: type, a: Node, b: Node) -> Node:
    key = (cls, a, b)
    ref = _NODES.get(key)
    if ref is not None and (node := ref()) is not None:
        return node
    ma, mb = a.max_coord, b.max_coord
    da, db = a.dot_lens, b.dot_lens
    if db and db != da:
        da = da + tuple(k for k in db if k not in da)
    node = _fresh(cls, key, ma if ma >= mb else mb, da)
    _set_binary_a(node, a)
    _set_binary_b(node, b)
    return node


def _unary(cls: type, a: Node) -> Node:
    key = (cls, a)
    ref = _NODES.get(key)
    if ref is not None and (node := ref()) is not None:
        return node
    node = _fresh(cls, key, a.max_coord, a.dot_lens)
    _set_unary_a(node, a)
    return node


def _interned(cls: type, key: tuple, max_coord: int = -1, dot_lens: tuple = (), **fields) -> Node:
    ref = _NODES.get(key)
    if ref is not None and (node := ref()) is not None:
        return node
    node = _fresh(cls, key, max_coord, dot_lens)
    for name, value in fields.items():
        object.__setattr__(node, name, value)
    return node


class _Binary(Node):
    __slots__ = ("a", "b")
    __new__ = _binary


class _Unary(Node):
    __slots__ = ("a",)
    __new__ = _unary


_set_binary_a = _Binary.a.__set__
_set_binary_b = _Binary.b.__set__
_set_unary_a = _Unary.a.__set__
_pack_double = struct.Struct("<d").pack


class Const(Node):
    __slots__ = ("c",)

    def __new__(cls, c: float):
        if not math.isfinite(c):
            raise DomainError(f"constant {c} is not finite")
        return _interned(cls, (cls, _pack_double(c)), c=c)


class Coord(Node):
    __slots__ = ("i",)

    def __new__(cls, i: int):
        return _interned(cls, (cls, i), i, i=i)


class Add(_Binary):
    __slots__ = ()


class Sub(_Binary):
    __slots__ = ()


class Mul(_Binary):
    __slots__ = ()


class Div(_Binary):
    __slots__ = ()


class Pow(Node):
    __slots__ = ("a", "expo")  # expo: real constant exponent

    def __new__(cls, a: Node, expo: float):
        return _interned(cls, (cls, a, expo), a.max_coord, a.dot_lens, a=a, expo=expo)


class Exp(_Unary):
    __slots__ = ()


class Log(_Unary):
    __slots__ = ()


class Sqrt(_Unary):
    __slots__ = ()


class NormSq(Node):
    """Squared Euclidean norm |x|^2 of the coordinate vector."""

    __slots__ = ()

    def __new__(cls):
        return _interned(cls, (cls,))


class Dot(Node):
    """Scalar product c . x with a constant vector c."""

    __slots__ = ("coeffs",)

    def __new__(cls, coeffs: tuple[float, ...]):
        if not all(map(math.isfinite, coeffs)):
            raise DomainError(f"dot coefficients {coeffs} are not finite")
        key = (cls, struct.pack(f"<{len(coeffs)}d", *coeffs))
        return _interned(cls, key, -1, (len(coeffs),), coeffs=coeffs)


def _is_const(n: Node, value: float | None = None) -> bool:
    if not isinstance(n, Const):
        return False
    return True if value is None else n.c == value


# The constants that differentiation builds stay interned for the life of the module.
_ZERO, _ONE, _TWO = Const(0.0), Const(1.0), Const(2.0)

# Smart constructors: constant folding plus 0/1 identities; a fold that is
# not finite raises DomainError.  No deeper canonicalization; equality of
# fields is checked numerically, not symbolically.  The hot three test
# ``type(x) is Const`` inline.


def _fold(v: float, a: float, op: str, b: float) -> Node:
    if not math.isfinite(v):
        raise DomainError(f"constant {a} {op} {b} is not finite")
    return Const(v)


def _add(a: Node, b: Node) -> Node:
    ca, cb = type(a) is Const, type(b) is Const
    if ca and cb:
        return _fold(a.c + b.c, a.c, "+", b.c)
    if ca and a.c == 0.0:
        return b
    if cb and b.c == 0.0:
        return a
    return _binary(Add, a, b)


def _sub(a: Node, b: Node) -> Node:
    ca, cb = type(a) is Const, type(b) is Const
    if ca and cb:
        return _fold(a.c - b.c, a.c, "-", b.c)
    if cb and b.c == 0.0:
        return a
    return _binary(Sub, a, b)


def _mul(a: Node, b: Node) -> Node:
    ca, cb = type(a) is Const, type(b) is Const
    if ca and cb:
        return _fold(a.c * b.c, a.c, "*", b.c)
    if (ca and a.c == 0.0) or (cb and b.c == 0.0):
        return _ZERO
    if ca and a.c == 1.0:
        return b
    if cb and b.c == 1.0:
        return a
    return _binary(Mul, a, b)


def _div(a: Node, b: Node) -> Node:
    if isinstance(b, Const):
        if b.c == 0.0:
            raise DomainError("division by constant zero")
        if isinstance(a, Const):
            return _fold(a.c / b.c, a.c, "/", b.c)
        if b.c == 1.0:
            return a
        if _is_const(a, 0.0):
            return _ZERO
    return _binary(Div, a, b)


@contextmanager
def _overflow_is_domain_error(at):
    # math.exp and float ** raise OverflowError where numpy would give inf
    try:
        yield
    except OverflowError as e:
        raise DomainError(f"overflow at {at}: {e}") from None


def _pow(a: Node, expo: float) -> Node:
    if not math.isfinite(expo):
        raise DomainError(f"exponent {expo} is not finite")
    if expo == 1.0:
        return a
    if expo == 0.0:
        return _ONE
    if isinstance(a, Const):
        with _overflow_is_domain_error(f"constant {a.c} ^ {expo}"):
            return Const(_pow_value(a.c, expo))
    return Pow(a, expo)


def _exp(a: Node) -> Node:
    if isinstance(a, Const):
        with _overflow_is_domain_error(f"constant exp({a.c})"):
            return Const(math.exp(a.c))
    return _unary(Exp, a)


def _log(a: Node) -> Node:
    if isinstance(a, Const):
        if a.c <= 0.0:
            raise DomainError("log of non-positive constant")
        return Const(math.log(a.c))
    return _unary(Log, a)


def _sqrt(a: Node) -> Node:
    if isinstance(a, Const):
        if a.c < 0.0:
            raise DomainError("sqrt of negative constant")
        return Const(math.sqrt(a.c))
    return _unary(Sqrt, a)


def _as_int_exponent(expo: float) -> int | None:
    r = round(expo)
    return int(r) if abs(expo - r) < 1e-12 else None


def _pow_value(v: float, expo: float) -> float:
    k = _as_int_exponent(expo)
    if v > 0.0:
        return v**expo
    if k is None:
        raise DomainError(f"{v} ^ {expo} with non-integer exponent")
    if v == 0.0 and k < 0:
        raise DomainError("0 raised to a negative power")
    return float(v**k)


# ---------------------------------------------------------------------------
# Jets: truncated Taylor data at a point
# ---------------------------------------------------------------------------


@dataclass
class Jet:
    """Value, gradient and (symmetric) Hessian of a field at a point."""

    value: float
    gradient: np.ndarray
    hessian: np.ndarray


_outer = np.multiply.outer  # the bits of np.outer, without its ravel and reshape


def _zero_jet(dim: int, value: float = 0.0) -> Jet:
    return Jet(value, np.zeros(dim), np.zeros((dim, dim)))


def _j_add(a: Jet, b: Jet) -> Jet:
    return Jet(a.value + b.value, a.gradient + b.gradient, a.hessian + b.hessian)


def _j_sub(a: Jet, b: Jet) -> Jet:
    return Jet(a.value - b.value, a.gradient - b.gradient, a.hessian - b.hessian)


def _j_mul(a: Jet, b: Jet) -> Jet:
    value = a.value * b.value
    grad = a.value * b.gradient + b.value * a.gradient
    cross = _outer(a.gradient, b.gradient)  # its transpose is the other outer product, bit for bit
    hess = a.value * b.hessian + b.value * a.hessian + cross + cross.T
    return Jet(value, grad, hess)


def _j_compose(u: Sequence[float], a: Jet) -> Jet:
    """Chain rule for a univariate outer map: u = (u(v), u'(v), u''(v))."""
    g, h = a.gradient, a.hessian
    value = u[0]
    grad = u[1] * g
    hess = u[2] * _outer(g, g) + u[1] * h
    return Jet(value, grad, hess)


def _pow_derivs(v: float, expo: float) -> list[float]:
    """v^expo and its first two derivatives, with the hard domain policy."""
    k = _as_int_exponent(expo)
    out: list[float] = []
    if v > 0.0:
        coeff = 1.0
        for m in range(3):
            out.append(coeff * v ** (expo - m))
            coeff *= expo - m
        return out
    if k is None:
        raise DomainError(f"derivatives of v^{expo} need v > 0 (got v = {v})")
    if v == 0.0:
        if k < 0:
            raise DomainError("pole: 0 raised to a negative power")
        # v^k at v = 0: only the k-th derivative survives (= k!)
        for m in range(3):
            out.append(float(math.factorial(k)) if m == k else 0.0)
        return out
    coeff = 1.0
    for m in range(3):
        out.append(coeff * float(v ** (k - m)))
        coeff *= k - m
    return out


def _exp_derivs(v: float) -> list[float]:
    e = math.exp(v)
    return [e] * 3


def _log_derivs(v: float) -> list[float]:
    if v <= 0.0:
        raise DomainError(f"log needs a positive argument (got {v})")
    out = [math.log(v)]
    coeff = 1.0
    for m in range(1, 3):
        out.append(coeff / v**m)
        coeff *= -m
    return out


def _sqrt_derivs(v: float) -> list[float]:
    if v <= 0.0:
        raise DomainError(f"sqrt differentiation needs a positive argument (got {v})")
    return _pow_derivs(v, 0.5)


# ---------------------------------------------------------------------------
# Recursive evaluation; a per-call memo visits each distinct node once
# ---------------------------------------------------------------------------


def _eval_node(n: Node, x: np.ndarray, memo: dict) -> float:
    v = memo.get(n)
    if v is not None:
        return v
    t = type(n)
    if t is Mul:
        v = _eval_node(n.a, x, memo) * _eval_node(n.b, x, memo)
    elif t is Add:
        v = _eval_node(n.a, x, memo) + _eval_node(n.b, x, memo)
    elif t is Const:
        v = n.c
    elif t is Coord:
        v = float(x[n.i])
    elif t is Sub:
        v = _eval_node(n.a, x, memo) - _eval_node(n.b, x, memo)
    elif t is Div:
        d = _eval_node(n.b, x, memo)
        if d == 0.0:
            raise DomainError("division by zero")
        v = _eval_node(n.a, x, memo) / d
    elif t is Pow:
        v = _pow_value(_eval_node(n.a, x, memo), n.expo)
    elif t is Exp:
        v = math.exp(_eval_node(n.a, x, memo))
    elif t is Log:
        v = _eval_node(n.a, x, memo)
        if v <= 0.0:
            raise DomainError(f"log of {v}")
        v = math.log(v)
    elif t is Sqrt:
        v = _eval_node(n.a, x, memo)
        if v < 0.0:
            raise DomainError(f"sqrt of {v}")
        v = math.sqrt(v)
    elif t is NormSq:
        v = float(np.dot(x, x))
    elif t is Dot:
        v = float(np.dot(np.asarray(n.coeffs), x))
    else:
        raise TypeError(f"unknown node {n!r}")
    memo[n] = v
    return v


def _jet_node(n: Node, x: np.ndarray, memo: dict) -> Jet:
    j = memo.get(n)
    if j is not None:
        return j
    t = type(n)
    if t is Mul:
        j = _j_mul(_jet_node(n.a, x, memo), _jet_node(n.b, x, memo))
    elif t is Add:
        j = _j_add(_jet_node(n.a, x, memo), _jet_node(n.b, x, memo))
    elif t is Const:
        j = _zero_jet(x.shape[0], n.c)
    elif t is Coord:
        j = _zero_jet(x.shape[0], float(x[n.i]))
        j.gradient[n.i] = 1.0
    elif t is Sub:
        j = _j_sub(_jet_node(n.a, x, memo), _jet_node(n.b, x, memo))
    elif t is Div:
        b = _jet_node(n.b, x, memo)
        if b.value == 0.0:
            raise DomainError("division by zero")
        j = _j_mul(_jet_node(n.a, x, memo), _j_compose(_pow_derivs(b.value, -1.0), b))
    elif t is Pow:
        a = _jet_node(n.a, x, memo)
        j = _j_compose(_pow_derivs(a.value, n.expo), a)
    elif t is Exp:
        a = _jet_node(n.a, x, memo)
        j = _j_compose(_exp_derivs(a.value), a)
    elif t is Log:
        a = _jet_node(n.a, x, memo)
        j = _j_compose(_log_derivs(a.value), a)
    elif t is Sqrt:
        a = _jet_node(n.a, x, memo)
        j = _j_compose(_sqrt_derivs(a.value), a)
    elif t is NormSq:
        dim = x.shape[0]
        j = _zero_jet(dim, float(np.dot(x, x)))
        j.gradient[:] = 2.0 * x
        j.hessian[:] = 2.0 * np.eye(dim)
    elif t is Dot:
        c = np.asarray(n.coeffs, dtype=float)
        j = _zero_jet(x.shape[0], float(np.dot(c, x)))
        j.gradient[:] = c
    else:
        raise TypeError(f"unknown node {n!r}")
    memo[n] = j
    return j


def _diff_node(n: Node, i: int, memo: dict) -> Node:
    d = memo.get(n)
    if d is not None:
        return d
    t = type(n)
    if t is Mul:
        d = _add(_mul(_diff_node(n.a, i, memo), n.b), _mul(n.a, _diff_node(n.b, i, memo)))
    elif t is Add:
        d = _add(_diff_node(n.a, i, memo), _diff_node(n.b, i, memo))
    elif t is Const:
        d = _ZERO
    elif t is Coord:
        d = _ONE if n.i == i else _ZERO
    elif t is Sub:
        d = _sub(_diff_node(n.a, i, memo), _diff_node(n.b, i, memo))
    elif t is Div:
        if type(n.b) is Const:
            d = _div(_diff_node(n.a, i, memo), n.b)
        else:
            num = _sub(_mul(_diff_node(n.a, i, memo), n.b), _mul(n.a, _diff_node(n.b, i, memo)))
            d = _div(num, _pow(n.b, 2.0))
    elif t is Pow:
        inner = _diff_node(n.a, i, memo)
        d = _mul(_mul(Const(n.expo), _pow(n.a, n.expo - 1.0)), inner)
    elif t is Exp:
        d = _mul(n, _diff_node(n.a, i, memo))
    elif t is Log:
        d = _div(_diff_node(n.a, i, memo), n.a)
    elif t is Sqrt:
        d = _div(_diff_node(n.a, i, memo), _mul(_TWO, n))
    elif t is NormSq:
        d = _mul(_TWO, Coord(i))
    elif t is Dot:
        d = Const(n.coeffs[i])
    else:
        raise TypeError(f"unknown node {n!r}")
    memo[n] = d
    return d


# ---------------------------------------------------------------------------
# The text language: one grammar table, read by the parser and the printer
# ---------------------------------------------------------------------------

# Binary operators: symbol -> (node class, smart constructor, precedence).
# The parser folds every chain to the left, so the printer brackets a right
# operand of the same precedence, and printed text parses back to the node
# it came from.  Unary minus, ``^`` and atoms bind tighter than all four.
_BINARY_OPS = {
    "+": (Add, _add, 1),
    "-": (Sub, _sub, 1),
    "*": (Mul, _mul, 2),
    "/": (Div, _div, 2),
}
# Functions: name -> (node class, smart constructor).
_FUNCTIONS = {"exp": (Exp, _exp), "log": (Log, _log), "sqrt": (Sqrt, _sqrt)}
_PREC_UNARY, _PREC_POW, _PREC_ATOM = 3, 4, 5

# The printer's view of the same rows; + and - are printed with spaces.
_BINARY_TEXT = {
    cls: (f" {sym} " if prec == 1 else sym, prec) for sym, (cls, _, prec) in _BINARY_OPS.items()
}
_FUNCTION_NAMES = {cls: name for name, (cls, _) in _FUNCTIONS.items()}


def _fmt_num(c: float) -> str:
    return repr(float(c))


def _pp(n: Node, parent: int) -> str:
    t = type(n)
    if t in _BINARY_TEXT:
        sym, prec = _BINARY_TEXT[t]
        s = f"{_pp(n.a, prec)}{sym}{_pp(n.b, prec + 1)}"
    elif t in _FUNCTION_NAMES:
        s, prec = f"{_FUNCTION_NAMES[t]}({_pp(n.a, 0)})", _PREC_ATOM
    elif t is Const:
        s, prec = _fmt_num(n.c), _PREC_UNARY if n.c < 0 else _PREC_ATOM
        if s == "-0.0":  # the text -0.0 reads back as 0.0 - 0.0 = +0.0
            s, prec = "0.0*-1.0", _BINARY_OPS["*"][2]
    elif t is Coord:
        s, prec = f"x{n.i}", _PREC_ATOM
    elif t is Pow:
        s, prec = f"{_pp(n.a, _PREC_ATOM)}^{_fmt_num(n.expo)}", _PREC_POW
    elif t is NormSq:
        s, prec = "normsq(x)", _PREC_ATOM
    elif t is Dot:
        vec = ",".join(_fmt_num(c) for c in n.coeffs)
        s, prec = f"dot(({vec}),x)", _PREC_ATOM
    else:
        raise TypeError(f"unknown node {n!r}")
    return f"({s})" if prec < parent else s


_TOKEN_RE = re.compile(
    r"(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^(),])"
    r"|(?P<bad>\S)"
)


def _tokenize(src: str) -> list[tuple[str, str, int]]:
    """(kind, text, position) per token, ending in an ``eof`` token.  Every
    operator is one character, so a token's text alone tells an operator."""
    tokens = []
    for m in _TOKEN_RE.finditer(src):
        kind, text, at = m.lastgroup, m.group(), m.start()
        if kind == "bad":
            raise ParseError(f"unexpected character {text!r}", at)
        if kind == "num" and not math.isfinite(float(text)):
            raise ParseError(f"number {text} is not finite", at)
        tokens.append((kind, text, at))
    if not tokens:
        raise ParseError("empty input", 0)
    tokens.append(("eof", "", len(src)))
    return tokens


class _Parser:
    """Recursive descent over :func:`_tokenize`'s tokens.  Nothing is read
    past the ``eof`` token: every method that can take it raises."""

    def __init__(self, src: str, dim: int):
        self.dim = dim
        self.tokens = _tokenize(src)
        self.pos = 0

    def _peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def _next(self) -> tuple[str, str, int]:
        self.pos += 1
        return self.tokens[self.pos - 1]

    def _expect(self, *wants: str) -> None:
        for want in wants:
            _, text, at = self._next()
            if text == want:
                continue
            if want == "x":
                raise ParseError("expected the coordinate vector 'x'", at)
            raise ParseError(f"expected {want!r}, found {text!r}" if text else f"expected {want!r}", at)

    def parse(self) -> ScalarField:
        node = self._expr()
        kind, text, at = self._peek()
        if kind != "eof":
            raise ParseError(f"unexpected trailing input {text!r}", at)
        return ScalarField(node, self.dim)

    def _expr(self, min_prec: int = 1) -> Node:
        # precedence climbing: the right operand takes only tighter operators
        node = self._unary()
        while (op := _BINARY_OPS.get(self._peek()[1])) is not None and op[2] >= min_prec:
            self._next()
            _, build, prec = op
            node = build(node, self._expr(prec + 1))
        return node

    def _unary(self) -> Node:
        text = self._peek()[1]
        if text in ("-", "+"):
            self._next()
            node = self._unary()
            return _sub(_ZERO, node) if text == "-" else node
        return self._power()

    def _power(self) -> Node:
        base = self._atom()
        if self._peek()[1] != "^":
            return base
        self._next()
        expo_at = self._peek()[2]
        expo = self._unary()
        if not isinstance(expo, Const):
            raise ParseError("power exponent must fold to a real constant", expo_at)
        return _pow(base, expo.c)

    def _atom(self) -> Node:
        kind, text, at = self._next()
        if kind == "num":
            return Const(float(text))
        if text == "(":
            node = self._expr()
            self._expect(")")
            return node
        if kind == "ident":
            return self._ident(text, at)
        raise ParseError(f"unexpected token {text!r}" if text else "unexpected end of input", at)

    def _ident(self, name: str, at: int) -> Node:
        if name in _FUNCTIONS:
            self._expect("(")
            arg = self._expr()
            self._expect(")")
            return _FUNCTIONS[name][1](arg)
        if name == "normsq":
            self._expect("(", "x", ")")
            return NormSq()
        if name == "dot":
            self._expect("(")
            coeffs = self._vector()
            self._expect(",", "x", ")")
            if len(coeffs) != self.dim:
                raise ParseError(f"dot vector has {len(coeffs)} components, expected {self.dim}", at)
            return Dot(coeffs)
        m = re.fullmatch(r"x(\d+)", name)
        if m:
            i = int(m.group(1))
            if i >= self.dim:
                raise ParseError(f"coordinate x{i} out of range for dim {self.dim}", at)
            return Coord(i)
        if name == "x":
            raise ParseError("bare 'x' is only valid inside normsq(x) or dot(c,x)", at)
        raise ParseError(f"unknown identifier {name!r}", at)

    def _vector(self) -> tuple[float, ...]:
        self._expect("(")
        coeffs: list[float] = []
        while True:
            kind, text, at = self._next()
            sign = -1.0 if text == "-" else 1.0
            if text in ("-", "+"):
                kind, text, at = self._next()
            if kind != "num":
                raise ParseError("expected a number in vector literal", at)
            coeffs.append(sign * float(text))
            _, text, at = self._next()
            if text == ")":
                return tuple(coeffs)
            if text != ",":
                raise ParseError("expected ',' or ')' in vector literal", at)


# ---------------------------------------------------------------------------
# ScalarField
# ---------------------------------------------------------------------------


class ScalarField:
    """Immutable smooth function R^n -> R.

    Supports arithmetic with other fields of the same dimension and with
    python scalars; ``f ** c`` takes a real constant exponent.  Evaluation is
    pure, so instances are safe to share across workers.
    """

    __slots__ = ("root", "dim", "_tape", "_grad_tape")

    def __init__(self, root: Node, dim: int):
        if dim <= 0:
            raise ValueError("dim must be positive")
        if root.max_coord >= dim:
            raise ValueError(f"coordinate x{root.max_coord} out of range for dim {dim}")
        for k in root.dot_lens:
            if k != dim:
                raise ValueError(f"dot vector has length {k}, expected {dim}")
        object.__setattr__(self, "root", root)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "_tape", None)
        object.__setattr__(self, "_grad_tape", None)

    def __setattr__(self, name, value):  # immutability guard (tape caches excepted)
        if name in ("_tape", "_grad_tape"):
            object.__setattr__(self, name, value)
        else:
            raise AttributeError("ScalarField is immutable")

    # -- construction helpers ------------------------------------------------

    def _lift(self, other) -> "ScalarField":
        if isinstance(other, ScalarField):
            if other.dim != self.dim:
                raise ValueError("dimension mismatch")
            return other
        return ScalarField(Const(float(other)), self.dim)

    def __add__(self, other):
        o = self._lift(other)
        return ScalarField(_add(self.root, o.root), self.dim)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        return ScalarField(_sub(self.root, o.root), self.dim)

    def __rsub__(self, other):
        o = self._lift(other)
        return ScalarField(_sub(o.root, self.root), self.dim)

    def __mul__(self, other):
        o = self._lift(other)
        return ScalarField(_mul(self.root, o.root), self.dim)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        return ScalarField(_div(self.root, o.root), self.dim)

    def __rtruediv__(self, other):
        o = self._lift(other)
        return ScalarField(_div(o.root, self.root), self.dim)

    def __pow__(self, expo: float):
        return ScalarField(_pow(self.root, float(expo)), self.dim)

    def __neg__(self):
        return ScalarField(_sub(_ZERO, self.root), self.dim)

    def exp(self) -> "ScalarField":
        return ScalarField(_exp(self.root), self.dim)

    def log(self) -> "ScalarField":
        return ScalarField(_log(self.root), self.dim)

    def sqrt(self) -> "ScalarField":
        return ScalarField(_sqrt(self.root), self.dim)

    # -- evaluation ----------------------------------------------------------

    def value(self, x) -> float:
        x = _as_point(x, self.dim)
        with _overflow_is_domain_error(x):
            v = _eval_node(self.root, x, {})
        if not math.isfinite(v):
            raise DomainError(f"overflow at {x}: the value is {v}")
        return v

    __call__ = value

    def diff(self, i: int) -> "ScalarField":
        if not 0 <= i < self.dim:
            raise ValueError(f"coordinate index {i} out of range for dim {self.dim}")
        return ScalarField(_diff_node(self.root, i, {}), self.dim)

    def jet(self, x) -> Jet:
        x = _as_point(x, self.dim)
        with _overflow_is_domain_error(x):
            j = _jet_node(self.root, x, {})
        if not (math.isfinite(j.value) and np.isfinite(j.gradient).all() and np.isfinite(j.hessian).all()):
            raise DomainError(f"overflow at {x}: the jet is not finite")
        return j

    def is_zero(self) -> bool:
        """Structurally the zero field (after constant folding)."""
        return _is_const(self.root, 0.0)

    def to_text(self) -> str:
        """The field in the text language; :func:`parse_field` reads it back
        to this field, node for node."""
        return _pp(self.root, 0)

    def __repr__(self) -> str:
        return f"ScalarField({self.to_text()!r}, dim={self.dim})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ScalarField)
            and self.dim == other.dim
            and self.root == other.root
        )

    def __hash__(self) -> int:
        return hash((self.root, self.dim))

    @staticmethod
    def parse(src: str, dim: int) -> "ScalarField":
        return parse_field(src, dim)


def _as_point(x, dim: int) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    if arr.shape != (dim,):
        raise ValueError(f"point has shape {arr.shape}, expected ({dim},)")
    return arr


def const_field(c: float, dim: int) -> ScalarField:
    return ScalarField(Const(float(c)), dim)


def coord_field(i: int, dim: int) -> ScalarField:
    return ScalarField(Coord(i), dim)


def normsq_field(dim: int) -> ScalarField:
    return ScalarField(NormSq(), dim)


def dot_field(coeffs: Iterable[float], dim: int | None = None) -> ScalarField:
    c = tuple(float(v) for v in coeffs)
    if dim is None:
        dim = len(c)
    return ScalarField(Dot(c), dim)


# ---------------------------------------------------------------------------
# Spec-level operations
# ---------------------------------------------------------------------------


def parse_field(src: str, dim: int) -> ScalarField:
    """Parse expression text into a :class:`ScalarField` of dimension ``dim``.

    Grammar: numbers, ``x0..x{n-1}``, ``+ - * / ^``, ``exp( ) log( ) sqrt( )``,
    ``normsq(x)``, ``dot((c0,...,ck),x)``; standard precedence, ``^`` binds a
    constant real exponent.  Errors carry the offending source position.
    """
    return _Parser(src, dim).parse()


def finite_diff_jet(f: ScalarField, x, h: float = 1e-5) -> Jet:
    """Central-difference jet; a slow independent oracle for tests."""
    x = _as_point(x, f.dim)
    n = f.dim
    val = f.value(x)
    grad = np.zeros(n)
    hess = np.zeros((n, n))
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = h
        fp, fm = f.value(x + ei), f.value(x - ei)
        grad[i] = (fp - fm) / (2 * h)
        hess[i, i] = (fp - 2 * val + fm) / h**2
    for i in range(n):
        for j in range(i + 1, n):
            ei = np.zeros(n)
            ej = np.zeros(n)
            ei[i] = h
            ej[j] = h
            v = (
                f.value(x + ei + ej)
                - f.value(x + ei - ej)
                - f.value(x - ei + ej)
                + f.value(x - ei - ej)
            ) / (4 * h**2)
            hess[i, j] = hess[j, i] = v
    return Jet(val, grad, hess)


# ---------------------------------------------------------------------------
# Problem data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProblemSpec:
    """A potential/weight pair defining L = Laplacian - grad U . grad.

    ``W`` is nonnegative by contract (not enforced pointwise).
    ``gaussian_U`` is worked out from U, not set: it is true when U is
    |x|^2/2 written as ``normsq(x)/2``, ``0.5*normsq(x)`` or
    ``normsq(x)*0.5``, plus or minus an optional constant on either side.
    It selects the closed-form Ornstein-Uhlenbeck oracles and the exact
    Euler-Maruyama drift; any other spelling of the same potential is still
    handled correctly, only by sampling.
    """

    dim: int
    U: ScalarField
    W: ScalarField
    gaussian_U: bool = dc_field(init=False)

    def __post_init__(self):
        if self.U.dim != self.dim or self.W.dim != self.dim:
            raise ValueError("U and W must share the problem dimension")
        object.__setattr__(self, "gaussian_U", _is_gaussian_potential(self.U.root))


def _is_half_normsq(n: Node) -> bool:
    if isinstance(n, Div) and isinstance(n.a, NormSq) and _is_const(n.b, 2.0):
        return True
    if isinstance(n, Mul):
        return (_is_const(n.a, 0.5) and isinstance(n.b, NormSq)) or (
            _is_const(n.b, 0.5) and isinstance(n.a, NormSq)
        )
    return False


def _is_gaussian_potential(n: Node) -> bool:
    # c - |x|^2/2 is excluded: its drift is -x
    if isinstance(n, (Add, Sub)) and isinstance(n.b, Const):
        n = n.a
    elif isinstance(n, Add) and isinstance(n.a, Const):
        n = n.b
    return _is_half_normsq(n)

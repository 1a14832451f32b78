"""Built-in potentials, weights, and problem constructors.

The built-ins cover the standard test configurations: the Gaussian potential
|x|^2/2 (whose semigroup has closed Ornstein-Uhlenbeck formulas), the
power-family potential (1+|x|^2)^(p/2)/p with weight (1+|x|^2)^(q/2)/q, the
square-root weight sqrt(1+|x|^2), and the zero weight that collapses the
weighted calculus to the classical one.

Additive normalizing constants in U are dropped: every quantity computed
here depends on U only through its gradient and Hessian.
"""

from __future__ import annotations

from .field_expr import ProblemSpec, ScalarField, const_field, normsq_field

__all__ = [
    "gaussian_potential",
    "pq_potential",
    "sqrt1sq_weight",
    "pq_weight",
    "zero_weight",
    "gaussian_problem",
    "pq_problem",
    "make_problem",
]


def gaussian_potential(dim: int) -> ScalarField:
    """U(x) = |x|^2 / 2."""
    return ScalarField.parse("normsq(x)/2", dim)


def pq_potential(p: float, dim: int) -> ScalarField:
    """U(x) = (1+|x|^2)^(p/2) / p, confining for p > 0."""
    if p <= 0:
        raise ValueError("p must be positive")
    return ((1.0 + normsq_field(dim)) ** (p / 2.0)) / p


def sqrt1sq_weight(dim: int) -> ScalarField:
    """W(x) = sqrt(1+|x|^2), the smooth stand-in for |x|."""
    return ScalarField.parse("sqrt(1+normsq(x))", dim)


def pq_weight(q: float, dim: int) -> ScalarField:
    """W(x) = (1+|x|^2)^(q/2) / q."""
    if q <= 0:
        raise ValueError("q must be positive")
    return ((1.0 + normsq_field(dim)) ** (q / 2.0)) / q


def zero_weight(dim: int) -> ScalarField:
    """W = 0: gamma_w reduces to gamma, gamma2_w to gamma2."""
    return const_field(0.0, dim)


def gaussian_problem(dim: int, weight: ScalarField | None = None) -> ProblemSpec:
    """Gaussian potential with the given weight (default sqrt(1+|x|^2))."""
    w = sqrt1sq_weight(dim) if weight is None else weight
    return ProblemSpec(dim=dim, U=gaussian_potential(dim), W=w)


def pq_problem(p: float, q: float, dim: int) -> ProblemSpec:
    return ProblemSpec(dim=dim, U=pq_potential(p, dim), W=pq_weight(q, dim))


_BUILTIN_U = {
    "gaussian": lambda dim: gaussian_potential(dim),
}

_BUILTIN_W = {
    "zero": lambda dim: zero_weight(dim),
    "sqrt1sq": lambda dim: sqrt1sq_weight(dim),
}


def make_problem(dim: int, u_spec: str, w_spec: str) -> ProblemSpec:
    """Build a problem from builtin names or expression text.

    ``u_spec``: ``gaussian``, ``pq_potential(p)``, or an expression.
    ``w_spec``: ``zero``, ``sqrt1sq``, ``pq_weight(q)``, or an expression.
    Whether U is the Gaussian potential is read off U itself (see
    :class:`ProblemSpec`), so ``gaussian`` and ``normsq(x)/2`` give the same
    problem.
    """
    U = _resolve(u_spec, dim, _BUILTIN_U, "pq_potential", pq_potential)
    W = _resolve(w_spec, dim, _BUILTIN_W, "pq_weight", pq_weight)
    return ProblemSpec(dim=dim, U=U, W=W)


def _resolve(spec: str, dim: int, table, param_name: str, param_fn) -> ScalarField:
    text = spec.strip()
    if text in table:
        return table[text](dim)
    if text.startswith(param_name + "(") and text.endswith(")"):
        arg = float(text[len(param_name) + 1 : -1])
        return param_fn(arg, dim)
    return ScalarField.parse(text, dim)

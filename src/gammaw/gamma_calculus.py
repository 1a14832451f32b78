"""Pointwise carre-du-champ calculus for L = Laplacian - grad U . grad.

Classical operators:

    Gamma(f,g)  = grad f . grad g
    Gamma2(f)   = sum_ij (d2_ij f)^2 + (grad f)^T Hess U (grad f)

Weighted variants, for a nonnegative weight W:

    GammaW(f,g)  = Gamma(f,g) + W^2 f g
    Gamma2W(f)   = (1/2) (L GammaW(f,f) - 2 GammaW(f, Lf))
                 = Gamma2(f) + f^2 (W lap W + |grad W|^2 - W grad W . grad U)
                   + W^2 |grad f|^2 + 4 f W grad W . grad f

Every form the program reports is built symbolically (``_Builds``).
``gamma2_w_field`` builds the expanded form as a field, and
``gamma2_w_sweep`` builds it, with GammaW(f,f), for each field of a sweep;
the sweep is the batch route that ``curvature_bounds.check_pointwise_cd``
and ``verifier.optimality_study`` evaluate on the tape.
``gamma2_w_definitional`` builds the definition as fields and evaluates them
at one point.

The pointwise functions ``apply_L``, ``gamma``, ``gamma2``, ``gamma_w``,
``gamma2_w``, ``gamma_integrand`` and ``sqrt_defect`` read order-2 jets.
They are the independent oracle: ``gamma2_w`` is checked against the
definition (AC3) and is AC10's target, and the tests pin the builders
against them.  Nothing else in the package takes a jet.

The field builders differentiate through one memo per coordinate for the
whole call (``_Builds``), so a (node, coordinate) pair is differentiated once
however often it recurs; the symbolic steps of ``gamma2_w_definitional``
share one set.  Nodes are hash-consed, so the roots
are the ones a fresh ``diff`` per partial derivative builds.
``gamma2_w_sweep``, the pointwise sweep's builder, builds the U/W-only terms
of Gamma2W once and gives each field fresh memos, so nothing outlives the
sweep.

The curvature integrand

    lap W / W - 3 |grad W|^2 / W^2 - grad U . grad W / W

drives the kappa = min(rho, gamma) criterion; its infimum over {W != 0} is
taken in ``curvature_bounds``.  Points where W vanishes are excluded from
that infimum, so ``gamma_integrand`` raises :class:`WeightVanishesError`
there instead of returning huge values.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

import numpy as np

from .field_expr import (
    FieldError,
    ProblemSpec,
    ScalarField,
    _diff_node,
    const_field,
)

__all__ = [
    "WeightVanishesError",
    "apply_L",
    "apply_L_symbolic",
    "gamma",
    "gamma2",
    "gamma_w",
    "gamma2_w",
    "gamma2_w_definitional",
    "gamma_integrand",
    "sqrt_defect",
    "gamma_field",
    "gamma_w_field",
    "gamma2_w_field",
    "gamma2_w_sweep",
    "gamma_integrand_field",
    "sqrt_gamma_w_field",
]

WEIGHT_EPS = 1e-12


class WeightVanishesError(FieldError):
    """The curvature integrand is undefined where the weight vanishes."""


def apply_L(p: ProblemSpec, f: ScalarField, x) -> float:
    """L f (x) = trace Hess f (x) - grad U (x) . grad f (x)."""
    jf = f.jet(x)
    ju = p.U.jet(x)
    return float(np.trace(jf.hessian) - ju.gradient @ jf.gradient)


def apply_L_symbolic(p: ProblemSpec, f: ScalarField) -> ScalarField:
    """L f as a field, composable for iterated applications."""
    return _Builds(p).apply_L(f)


def gamma(p: ProblemSpec, f: ScalarField, g: ScalarField, x) -> float:
    """Gamma(f,g)(x) = grad f . grad g."""
    return float(f.jet(x).gradient @ g.jet(x).gradient)


def gamma2(p: ProblemSpec, f: ScalarField, x) -> float:
    """Gamma2(f)(x) = sum_ij (d2_ij f)^2 + (grad f)^T Hess U (grad f)."""
    jf = f.jet(x)
    ju = p.U.jet(x)
    return float(np.sum(jf.hessian**2) + jf.gradient @ ju.hessian @ jf.gradient)


def gamma_w(p: ProblemSpec, f: ScalarField, g: ScalarField, x) -> float:
    """GammaW(f,g)(x) = Gamma(f,g) + W^2 f g; equals |Df|^2 when f = g."""
    w = p.W.value(x)
    return gamma(p, f, g, x) + w * w * f.value(x) * g.value(x)


def gamma2_w(p: ProblemSpec, f: ScalarField, x) -> float:
    """Gamma2W(f)(x) via the order-2 expansion (see module docstring)."""
    jf, ju, jw = f.jet(x), p.U.jet(x), p.W.jet(x)
    fv, wv = jf.value, jw.value
    grad_f, grad_w = jf.gradient, jw.gradient
    base = float(np.sum(jf.hessian**2) + grad_f @ ju.hessian @ grad_f)
    lap_w = float(np.trace(jw.hessian))
    weight_term = fv * fv * (
        wv * lap_w + float(grad_w @ grad_w) - wv * float(grad_w @ ju.gradient)
    )
    return (
        base
        + weight_term
        + wv * wv * float(grad_f @ grad_f)
        + 4.0 * fv * wv * float(grad_w @ grad_f)
    )


def gamma2_w_definitional(p: ProblemSpec, f: ScalarField, x) -> float:
    """Gamma2W(f)(x) = (1/2)(L GammaW(f,f) - 2 GammaW(f, Lf)), symbolically.

    The definition, checked against the jet expansion :func:`gamma2_w`:
    GammaW(f,f), Lf, L GammaW(f,f) and GammaW(f, Lf) are built as fields in
    one ``_Builds`` and evaluated at x, so no jet is taken.
    """
    b = _Builds(p)
    lf = b.apply_L(f)
    l_gw = b.apply_L(b.gamma_w(f, f)).value(x)
    return 0.5 * (l_gw - 2.0 * b.gamma_w(f, lf).value(x))


def gamma_integrand(p: ProblemSpec, x) -> float:
    """lap W / W - 3|grad W|^2/W^2 - grad U . grad W / W at x, for W(x) != 0.

    The jet point oracle of estimate_gamma's tape objective.
    """
    jw = p.W.jet(x)
    wv = jw.value
    if abs(wv) < WEIGHT_EPS:
        raise WeightVanishesError(f"W vanishes at {np.asarray(x)!r}")
    ju = p.U.jet(x)
    lap_w = float(np.trace(jw.hessian))
    gw2 = float(jw.gradient @ jw.gradient)
    return lap_w / wv - 3.0 * gw2 / (wv * wv) - float(ju.gradient @ jw.gradient) / wv


def sqrt_defect(p: ProblemSpec, g: ScalarField, x, rho: float, c: float) -> tuple[float, float]:
    """Defect pair for the square-root commutation argument.

    Returns ``(lhs, bound)`` with lhs = g (LW - rho W) + 2 grad W . grad g
    and bound = -c (|grad g| + W g); the inequality lhs >= bound is what the
    constant c is defined to guarantee for g >= 0.
    """
    jg = g.jet(x)
    jw = p.W.jet(x)
    lw = apply_L(p, p.W, x)
    lhs = jg.value * (lw - rho * jw.value) + 2.0 * float(jw.gradient @ jg.gradient)
    bound = -c * (float(np.linalg.norm(jg.gradient)) + jw.value * jg.value)
    return lhs, bound


# ---------------------------------------------------------------------------
# Symbolic field builders (for batch evaluation and semigroup estimates)
# ---------------------------------------------------------------------------


class _Builds:
    """Symbolic builds for one problem, within one call or sweep.

    Every partial derivative goes through one memo per coordinate, so a
    (node, coordinate) pair that recurs anywhere in the call is
    differentiated once.  Nodes are hash-consed, so this is the node a fresh
    ``ScalarField.diff`` builds.  The U/W-only terms of Gamma2W are built on
    first use; :meth:`fresh` hands them to a new object with empty memos, so
    a sweep builds them once while each field's derivatives die with it.
    """

    def __init__(self, p: ProblemSpec, uw: "_UWTerms | None" = None):
        self.p = p
        self.zero = const_field(0.0, p.dim)
        self._memos: list[dict] = [{} for _ in range(p.dim)]
        self._uw = uw

    def fresh(self) -> "_Builds":
        return _Builds(self.p, self.uw)

    def d(self, f: ScalarField, i: int) -> ScalarField:
        return ScalarField(_diff_node(f.root, i, self._memos[i]), f.dim)

    def grad(self, f: ScalarField) -> list[ScalarField]:
        return [self.d(f, i) for i in range(self.p.dim)]

    def dot(self, a: list[ScalarField], b: list[ScalarField]) -> ScalarField:
        out = self.zero
        for ai, bi in zip(a, b):
            out = out + ai * bi
        return out

    @property
    def uw(self) -> "_UWTerms":
        if self._uw is None:
            self._uw = _UWTerms(self)
        return self._uw

    def gamma(self, f: ScalarField, g: ScalarField) -> ScalarField:
        return self.dot(self.grad(f), self.grad(g))

    def gamma_w(self, f: ScalarField, g: ScalarField) -> ScalarField:
        return self.gamma(f, g) + self.p.W * self.p.W * f * g

    def apply_L(self, f: ScalarField) -> ScalarField:
        out = self.zero
        for i in range(self.p.dim):
            fi = self.d(f, i)
            out = out + self.d(fi, i) - self.d(self.p.U, i) * fi
        return out

    def gamma2_w(self, f: ScalarField) -> ScalarField:
        n, w, uw, zero = self.p.dim, self.p.W, self.uw, self.zero
        df = self.grad(f)
        hess_sq = sum((self.d(df[i], j) ** 2 for i in range(n) for j in range(n)), zero)
        hess_u = sum((self.dot(df, uw.hess_u[j]) * df[j] for j in range(n)), zero)
        return (
            hess_sq + hess_u
            + f * f * uw.weight_coef
            + uw.w_sq * self.dot(df, df)
            + 4.0 * f * w * self.dot(uw.grad_w, df)
        )


class _UWTerms:
    """The U/W-only pieces of Gamma2W: grad U, Hess U (``hess_u[j][i]`` is
    d_i d_j U), grad W, W^2 and W lap W + |grad W|^2 - W grad W . grad U."""

    def __init__(self, b: _Builds):
        w = b.p.W
        self.grad_u = b.grad(b.p.U)
        self.hess_u = [b.grad(u_j) for u_j in self.grad_u]
        self.grad_w = b.grad(w)
        self.w_sq = w * w
        lap_w = sum((b.d(w_i, i) for i, w_i in enumerate(self.grad_w)), b.zero)
        self.weight_coef = w * lap_w + b.dot(self.grad_w, self.grad_w) - w * b.dot(self.grad_w, self.grad_u)


def gamma_field(p: ProblemSpec, f: ScalarField, g: ScalarField) -> ScalarField:
    """Gamma(f,g) as a field: sum_i (d_i f)(d_i g)."""
    return _Builds(p).gamma(f, g)


def gamma_w_field(p: ProblemSpec, f: ScalarField, g: ScalarField) -> ScalarField:
    """GammaW(f,g) as a field."""
    return _Builds(p).gamma_w(f, g)


def gamma2_w_field(p: ProblemSpec, f: ScalarField) -> ScalarField:
    """Gamma2W(f) as a field: the expansion of :func:`gamma2_w`, summed in its order."""
    return _Builds(p).gamma2_w(f)


def gamma2_w_sweep(p: ProblemSpec, fs: Iterable[ScalarField]) -> Iterator[tuple[ScalarField, ScalarField]]:
    """(Gamma2W(f), GammaW(f,f)) as fields for each f of a sweep, in order.

    The U/W-only terms of Gamma2W are built once for the sweep; each field's
    derivatives are built once for its pair and dropped before the next.
    """
    sweep = _Builds(p)
    for f in fs:
        b = sweep.fresh()
        yield b.gamma2_w(f), b.gamma_w(f, f)


def sqrt_gamma_w_field(p: ProblemSpec, f: ScalarField) -> ScalarField:
    """sqrt(Gamma(f)) + W f as a field (the square-root commutation payload)."""
    return _Builds(p).gamma(f, f).sqrt() + p.W * f


def gamma_integrand_field(p: ProblemSpec) -> ScalarField:
    """The curvature integrand as a field; division flags W = 0 points."""
    b = _Builds(p)
    lw = b.apply_L(p.W) + b.gamma(p.U, p.W)  # = lap W as a field
    gw = b.gamma(p.W, p.W)
    gu_w = b.gamma(p.U, p.W)
    return lw / p.W - 3.0 * gw / (p.W * p.W) - gu_w / p.W

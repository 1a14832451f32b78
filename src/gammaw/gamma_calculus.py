"""Pointwise carre-du-champ calculus for L = Laplacian - grad U . grad.

Classical operators:

    Gamma(f,g)  = grad f . grad g
    Gamma2(f)   = sum_ij (d2_ij f)^2 + (grad f)^T Hess U (grad f)

Weighted variants, for a nonnegative weight W:

    GammaW(f,g)  = Gamma(f,g) + W^2 f g
    Gamma2W(f)   = (1/2) (L GammaW(f,f) - 2 GammaW(f, Lf))
                 = Gamma2(f) + f^2 (W lap W + |grad W|^2 - W grad W . grad U)
                   + W^2 |grad f|^2 + 4 f W grad W . grad f

``gamma2_w_field`` builds the expanded form as a field; it is the batch
route, evaluated on the tape by ``curvature_bounds.check_pointwise_cd``.  Its
two oracles are ``gamma2_w``, the same expansion from order-2 jets at one
point, and ``gamma2_w_definitional``, the definition through the symbolic
route; the three are pinned against each other in tests.

The curvature integrand

    lap W / W - 3 |grad W|^2 / W^2 - grad U . grad W / W

drives the kappa = min(rho, gamma) criterion; its infimum over {W != 0} is
taken in ``curvature_bounds``.  Points where W vanishes are excluded from
that infimum, so ``gamma_integrand`` raises :class:`WeightVanishesError`
there instead of returning huge values.
"""

from __future__ import annotations

import numpy as np

from .field_expr import (
    FieldError,
    ProblemSpec,
    ScalarField,
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
    out = const_field(0.0, p.dim)
    for i in range(p.dim):
        fi = f.diff(i)
        out = out + fi.diff(i) - p.U.diff(i) * fi
    return out


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

    Serves as the independent oracle for :func:`gamma2_w`: GammaW(f,f) is
    built as a field, L is applied symbolically, and the result is evaluated.
    """
    gw = gamma_w_field(p, f, f)
    lf = apply_L_symbolic(p, f)
    l_gw = apply_L_symbolic(p, gw).value(x)
    return 0.5 * (l_gw - 2.0 * gamma_w(p, f, lf, x))


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


def gamma_field(p: ProblemSpec, f: ScalarField, g: ScalarField) -> ScalarField:
    """Gamma(f,g) as a field: sum_i (d_i f)(d_i g)."""
    out = const_field(0.0, p.dim)
    for i in range(p.dim):
        out = out + f.diff(i) * g.diff(i)
    return out


def gamma_w_field(p: ProblemSpec, f: ScalarField, g: ScalarField) -> ScalarField:
    """GammaW(f,g) as a field."""
    return gamma_field(p, f, g) + p.W * p.W * f * g


def gamma2_w_field(p: ProblemSpec, f: ScalarField) -> ScalarField:
    """Gamma2W(f) as a field: the expansion of :func:`gamma2_w`, summed in its order."""
    n, w, zero = p.dim, p.W, const_field(0.0, p.dim)
    df = [f.diff(i) for i in range(n)]
    hess_sq = sum((df[i].diff(j) ** 2 for i in range(n) for j in range(n)), zero)
    hess_u = sum((gamma_field(p, f, p.U.diff(j)) * df[j] for j in range(n)), zero)
    lap_w = sum((w.diff(i).diff(i) for i in range(n)), zero)
    weight_term = f * f * (w * lap_w + gamma_field(p, w, w) - w * gamma_field(p, w, p.U))
    return (
        hess_sq + hess_u
        + weight_term
        + w * w * gamma_field(p, f, f)
        + 4.0 * f * w * gamma_field(p, w, f)
    )


def sqrt_gamma_w_field(p: ProblemSpec, f: ScalarField) -> ScalarField:
    """sqrt(Gamma(f)) + W f as a field (the square-root commutation payload)."""
    return gamma_field(p, f, f).sqrt() + p.W * f


def gamma_integrand_field(p: ProblemSpec) -> ScalarField:
    """The curvature integrand as a field; division flags W = 0 points."""
    lw = apply_L_symbolic(p, p.W) + gamma_field(p, p.U, p.W)  # = lap W as a field
    gw = gamma_field(p, p.W, p.W)
    gu_w = gamma_field(p, p.U, p.W)
    return lw / p.W - 3.0 * gw / (p.W * p.W) - gu_w / p.W

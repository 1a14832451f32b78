"""Closed-form references for the benchmark's correctness checks.

Everything here is plain numpy/math and imports nothing from ``gammaw``, so
the checks stay independent of the code they check.  ``selftest.py`` pins
each closed form against brute-force sampling, quadrature or finite
differences.

Diffusions are diagonal Ornstein-Uhlenbeck processes

    dX = -diag(lam) X dt + sqrt(2) dB,    U(x) = sum_i lam_i x_i^2 / 2,

so the law of X_t given X_0 = y is Gaussian, N(A*y, diag(V)), both for the
exact process and for its Euler-Maruyama chain.  A ``law`` below is that
pair (A, V) of arrays.
"""

from __future__ import annotations

import math

import numpy as np

# Probabilists' Gauss-Hermite rule for E[h(Z)], Z ~ N(0, 1).
_GH_ORDER = 64
_GH_Z, _GH_W = np.polynomial.hermite_e.hermegauss(_GH_ORDER)
_GH_W = _GH_W / math.sqrt(2.0 * math.pi)


# ---------------------------------------------------------------------------
# Laws
# ---------------------------------------------------------------------------


def ou_law(lam, t: float):
    """Exact law of the OU flow over time t: A = e^{-lam t}, V = (1 - A^2)/lam."""
    lam = np.asarray(lam, dtype=float)
    a = np.exp(-lam * t)
    return a, (1.0 - a * a) / lam


def euler_schedule(t: float, dt: float) -> list[float]:
    """Steps of an Euler chain run to time t: whole steps dt, then the rest."""
    k = int(math.floor(t / dt + 1e-9))
    rest = t - k * dt
    if rest < 1e-12 * max(dt, 1.0):
        rest = 0.0
    return [dt] * k + ([rest] if rest > 0.0 else [])


def euler_law(lam, t: float, dt: float):
    """Law of the Euler chain X <- (1 - lam h) X + sqrt(2h) xi over time t."""
    lam = np.asarray(lam, dtype=float)
    a = np.ones_like(lam)
    v = np.zeros_like(lam)
    for h in euler_schedule(t, dt):
        step = 1.0 - lam * h
        a = step * a
        v = step * step * v + 2.0 * h
    return a, v


def compose(first, then):
    """Law of running ``first`` and then ``then``."""
    (a1, v1), (a2, v2) = first, then
    return a2 * a1, a2 * a2 * v1 + v2


# ---------------------------------------------------------------------------
# Gaussian expectations
# ---------------------------------------------------------------------------


def gauss_expect(h, mean, var) -> float:
    """E[h(Y)] for Y ~ N(mean, diag(var)) by a tensor Gauss-Hermite rule.

    ``h`` maps an (N, n) array of points to N values.  Exact for polynomials
    up to degree 127 and accurate to roundoff for the smooth exponential
    payloads used here.
    """
    mean = np.asarray(mean, dtype=float)
    n = mean.shape[0]
    grids = np.meshgrid(*([_GH_Z] * n), indexing="ij")
    z = np.stack([g.ravel() for g in grids], axis=-1)
    w = np.ones(z.shape[0])
    for g in np.meshgrid(*([_GH_W] * n), indexing="ij"):
        w *= g.ravel()
    return float(w @ h(mean + np.sqrt(var) * z))


def exp_moment(b, mean, var) -> float:
    """E[exp(b . Y)] for Y ~ N(mean, diag(var))."""
    b = np.asarray(b, dtype=float)
    return math.exp(float(b @ mean) + 0.5 * float(b * b @ var))


def folded_normal_mean(mu: float, sigma: float) -> float:
    """E|X| for X ~ N(mu, sigma^2)."""
    if sigma == 0.0:
        return abs(mu)
    z = mu / sigma
    return sigma * math.sqrt(2.0 / math.pi) * math.exp(-0.5 * z * z) + mu * math.erf(z / math.sqrt(2.0))


def radial_expect(g, mean, var, n_r: int = 200, n_theta: int = 128) -> float:
    """E[g(|Y|)] for Y ~ N(mean, diag(var)) in two dimensions.

    Polar quadrature about the origin, so a kink of g(|y|) at y = 0 costs no
    accuracy: Gauss-Legendre in r, the periodic trapezoid rule in theta.
    """
    mean = np.asarray(mean, dtype=float)
    var = np.asarray(var, dtype=float)
    r_max = float(np.linalg.norm(mean)) + 12.0 * math.sqrt(float(np.max(var)))
    u, wu = np.polynomial.legendre.leggauss(n_r)
    r = 0.5 * r_max * (u + 1.0)
    wr = 0.5 * r_max * wu
    theta = np.linspace(0.0, 2.0 * math.pi, n_theta, endpoint=False)
    y0 = r[:, None] * np.cos(theta)[None, :]
    y1 = r[:, None] * np.sin(theta)[None, :]
    log_dens = -0.5 * ((y0 - mean[0]) ** 2 / var[0] + (y1 - mean[1]) ** 2 / var[1])
    dens = np.exp(log_dens) / (2.0 * math.pi * math.sqrt(var[0] * var[1]))
    ring = dens.sum(axis=1) * (2.0 * math.pi / n_theta)
    return float(np.sum(wr * r * g(r) * ring))


# ---------------------------------------------------------------------------
# Test functions of the CLI battery: e^{a.x}, 1 + x0 + x0^2, e^{-|x|^2}
# ---------------------------------------------------------------------------


def weight_sq(y: np.ndarray) -> np.ndarray:
    """W^2 for W = sqrt(1 + |x|^2)."""
    return 1.0 + np.sum(y * y, axis=-1)


class ExpField:
    """f(x) = exp(a . x)."""

    def __init__(self, a):
        self.a = np.asarray(a, dtype=float)

    def value(self, y):
        return np.exp(y @ self.a)

    def grad_sq(self, y):
        return float(self.a @ self.a) * self.value(y) ** 2

    def kernel(self, y, law):
        """K f(y) = E[f(A*y + sqrt(V) Z)], vectorized over rows of y."""
        a_mul, v = law
        return np.exp((a_mul * y) @ self.a + 0.5 * float(self.a * self.a @ v))

    def kernel_grad(self, x, law):
        return law[0] * self.a * float(self.kernel(x, law))

    def abs_grad_expect(self, mean, var) -> float:
        return float(np.linalg.norm(self.a)) * exp_moment(self.a, mean, var)


class PolyField:
    """f(x) = 1 + x0 + x0^2."""

    def value(self, y):
        return 1.0 + y[..., 0] + y[..., 0] ** 2

    def grad_sq(self, y):
        return (1.0 + 2.0 * y[..., 0]) ** 2

    def kernel(self, y, law):
        a_mul, v = law
        m0 = a_mul[0] * y[..., 0]
        return 1.0 + m0 + m0 * m0 + v[0]

    def kernel_grad(self, x, law):
        out = np.zeros_like(law[0])
        out[0] = law[0][0] * (1.0 + 2.0 * law[0][0] * x[0])
        return out

    def abs_grad_expect(self, mean, var) -> float:
        return 2.0 * folded_normal_mean(mean[0] + 0.5, math.sqrt(var[0]))


class BumpField:
    """f(x) = exp(-|x|^2)."""

    def value(self, y):
        return np.exp(-np.sum(y * y, axis=-1))

    def grad_sq(self, y):
        return 4.0 * np.sum(y * y, axis=-1) * self.value(y) ** 2

    def kernel(self, y, law):
        a_mul, v = law
        m = a_mul * y
        return np.prod(1.0 / np.sqrt(1.0 + 2.0 * v)) * np.exp(-np.sum(m * m / (1.0 + 2.0 * v), axis=-1))

    def kernel_grad(self, x, law):
        a_mul, v = law
        m = a_mul * x
        return a_mul * (-2.0 * m / (1.0 + 2.0 * v)) * float(self.kernel(x, law))

    def abs_grad_expect(self, mean, var) -> float:
        return radial_expect(lambda r: 2.0 * r * np.exp(-r * r), mean, var)


def battery(a_vectors) -> dict:
    """The fields ``gammaw verify`` runs, keyed by the labels it writes."""
    fields = {}
    for a in a_vectors:
        fields["exp_a(" + ",".join(f"{v:g}" for v in a) + ")"] = ExpField(a)
    fields["poly_quad"] = PolyField()
    fields["bump"] = BumpField()
    return fields


# ---------------------------------------------------------------------------
# Semigroup quantities at one start point x
# ---------------------------------------------------------------------------


def qt(f, x, law) -> float:
    return float(f.kernel(np.asarray(x, dtype=float), law))


def grad_qt(f, x, law) -> np.ndarray:
    return f.kernel_grad(np.asarray(x, dtype=float), law)


def central_diff_grad_qt(f, x, law, h: float) -> np.ndarray:
    """Expectation of the common-random-number central difference of Q_t f."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for i in range(x.shape[0]):
        e = np.zeros_like(x)
        e[i] = h
        out[i] = (qt(f, x + e, law) - qt(f, x - e, law)) / (2.0 * h)
    return out


def law_mean(x, law):
    return law[0] * np.asarray(x, dtype=float)


def expect_f_sq(f, x, law) -> float:
    return gauss_expect(lambda y: f.value(y) ** 2, law_mean(x, law), law[1])


def expect_gamma_w(f, x, law) -> float:
    """Q_t(GammaW f)(x) with GammaW f = |grad f|^2 + W^2 f^2."""
    return gauss_expect(lambda y: f.grad_sq(y) + weight_sq(y) * f.value(y) ** 2, law_mean(x, law), law[1])


def expect_sqrt_payload(f, x, law) -> float:
    """Q_t(|grad f| + W f)(x)."""
    mean, var = law_mean(x, law), law[1]
    w_f = gauss_expect(lambda y: np.sqrt(weight_sq(y)) * f.value(y), mean, var)
    return f.abs_grad_expect(mean, var) + w_f


def _fk_node(f, x, outer, inner) -> float:
    """E[W^2(Y) (K f(Y))^2] for Y from ``outer``, K the ``inner`` kernel."""
    return gauss_expect(
        lambda y: weight_sq(y) * f.kernel(y, inner) ** 2, law_mean(x, outer), outer[1]
    )


def fk_exact(f, x, lam, t: float, nodes: int = 40) -> float:
    """2 int_0^t Q_s(W^2 (Q_{t-s} f)^2)(x) ds, Gauss-Legendre in s."""
    u, w = np.polynomial.legendre.leggauss(nodes)
    s = 0.5 * t * (u + 1.0)
    return float(sum(
        0.5 * t * wj * 2.0 * _fk_node(f, x, ou_law(lam, sj), ou_law(lam, t - sj))
        for sj, wj in zip(s, w)
    ))


def simpson_nodes(t: float, nodes: int):
    s = np.linspace(0.0, t, nodes)
    w = np.ones(nodes)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return s, w * (t / (nodes - 1)) / 3.0


def fk_simpson(f, x, lam, t: float, nodes: int, dt: float | None) -> float:
    """The same integral on Simpson nodes, under exact laws (dt None) or under
    the Euler chain that walks node to node and then continues to t."""
    s, w = simpson_nodes(t, nodes)
    dim = len(x)
    total = 0.0
    outer = (np.ones(dim), np.zeros(dim))
    for j in range(nodes):
        if dt is None:
            outer = ou_law(lam, s[j])
            inner = ou_law(lam, t - s[j])
        else:
            if j > 0:
                outer = compose(outer, euler_law(lam, s[j] - s[j - 1], dt))
            inner = euler_law(lam, t - s[j], dt)
        total += 2.0 * w[j] * _fk_node(f, x, outer, inner)
    return total


# ---------------------------------------------------------------------------
# Curvature constants for U = sum lam_i x_i^2 / 2, W = sqrt(1 + |x|^2)
# ---------------------------------------------------------------------------


def gamma_infimum(n: int, lam_max: float = 1.0) -> float:
    """inf of lap W/W - 3|grad W|^2/W^2 - grad U . grad W/W over R^n.

    With s = 1 + |x|^2 and all of |x|^2 on the stiffest axis, the integrand
    is g(s) = alpha/s + 4/s^2 - lam_max with alpha = n - 4 + lam_max, to be
    minimized over s >= 1.  For lam_max = 1 this is ((n-3)s + 4)/s^2 - 1.
    """
    alpha = n - 4.0 + lam_max
    if alpha >= 0.0:
        return -lam_max  # g decreases to its limit
    s_star = max(-8.0 / alpha, 1.0)
    return alpha / s_star + 4.0 / (s_star * s_star) - lam_max


def gamma_integrand(x: np.ndarray, lam) -> np.ndarray:
    """The curvature integrand in closed form, at rows of x."""
    lam = np.asarray(lam, dtype=float)
    n = x.shape[-1]
    r2 = np.sum(x * x, axis=-1)
    s = 1.0 + r2
    return n / s - 4.0 * r2 / (s * s) - np.sum(lam * x * x, axis=-1) / s


def c_constant(n: int, lam) -> float:
    """max(2 sup|grad W|, sup (rho - LW/W)_+) with rho = min lam.

    sup|grad W| = sup |x|/W = 1, and rho - LW/W = rho - n/s + |x|^2/s^2 +
    sum lam_i x_i^2/s climbs to rho + lam_max along the stiffest axis.
    """
    lam = np.asarray(lam, dtype=float)
    return max(2.0, float(lam.min() + lam.max()))


# ---------------------------------------------------------------------------
# The generator L = Laplacian - x . grad on exponentials
# ---------------------------------------------------------------------------


def l_exp(a, x) -> np.ndarray:
    """L e^{a.x} = (|a|^2 - a.x) e^{a.x}, at rows of x."""
    a = np.asarray(a, dtype=float)
    ax = x @ a
    return (a @ a - ax) * np.exp(ax)


def ll_exp(a, x) -> np.ndarray:
    """L L e^{a.x} = e^{a.x} [(|a|^2 - a.x)^2 + a.x - 2|a|^2], at rows of x."""
    a = np.asarray(a, dtype=float)
    ax = x @ a
    a2 = float(a @ a)
    return np.exp(ax) * ((a2 - ax) ** 2 + ax - 2.0 * a2)


class PolyExp:
    """P(x) e^{b.x} with P a polynomial, closed under the Gaussian generator.

    ``terms`` maps exponent tuples to coefficients.
    """

    def __init__(self, terms: dict, b):
        self.terms = {e: c for e, c in terms.items() if c != 0.0}
        self.b = np.asarray(b, dtype=float)

    @staticmethod
    def gamma_w_of_exp(a) -> "PolyExp":
        """GammaW(e^{a.x}) = (|a|^2 + W^2) e^{2a.x} with W^2 = 1 + |x|^2."""
        a = np.asarray(a, dtype=float)
        n = a.shape[0]
        terms = {(0,) * n: float(a @ a) + 1.0}
        for i in range(n):
            terms[tuple(2 if j == i else 0 for j in range(n))] = 1.0
        return PolyExp(terms, 2.0 * a)

    def _partial(self, terms: dict, i: int) -> dict:
        out: dict = {}
        for e, c in terms.items():
            if e[i] > 0:
                d = e[:i] + (e[i] - 1,) + e[i + 1 :]
                out[d] = out.get(d, 0.0) + c * e[i]
        return out

    def apply_l(self) -> "PolyExp":
        """L(P e) = e [lap P + 2 b.grad P + |b|^2 P - x.grad P - (b.x) P]."""
        b = self.b
        out: dict = {}

        def add(terms: dict, scale: float) -> None:
            for e, c in terms.items():
                out[e] = out.get(e, 0.0) + scale * c

        for i in range(b.shape[0]):
            d_i = self._partial(self.terms, i)
            add(self._partial(d_i, i), 1.0)
            add(d_i, 2.0 * b[i])
            add({e[:i] + (e[i] + 1,) + e[i + 1 :]: c for e, c in self.terms.items()}, -b[i])
        add({e: c * sum(e) for e, c in self.terms.items()}, -1.0)  # x.grad P
        add(self.terms, float(b @ b))
        return PolyExp(out, b)

    def poly(self, x) -> np.ndarray:
        """P at rows of x."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        out = np.zeros(x.shape[0])
        for e, c in self.terms.items():
            out += c * np.prod(x ** np.asarray(e), axis=1)
        return out

    def value(self, x) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return self.poly(x) * np.exp(x @ self.b)


def far_field_limit(a) -> float:
    """lim of Gamma2W(e^{a.x}) / GammaW(e^{a.x}) along x = r a/|a|: -1 + |a|^2."""
    a = np.asarray(a, dtype=float)
    return -1.0 + float(a @ a)

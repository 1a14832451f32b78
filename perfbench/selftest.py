"""Self-test of the benchmark's oracles: each closed form in ``oracles.py``
against brute-force numpy sampling, quadrature or finite differences.

    python3 perfbench/selftest.py

Needs only numpy; runs in a few seconds and exits 1 if any check fails.
"""

import math
import sys

import numpy as np

import oracles

RATES = ((1.0, 1.0), (1.5, 1.0))
FIELDS = (oracles.ExpField([0.5, -0.3]), oracles.PolyField(), oracles.BumpField())


class Report:
    def __init__(self):
        self.failed = 0

    def close(self, name: str, got, want, tol: float) -> None:
        err = float(np.max(np.abs(np.asarray(got, dtype=float) - np.asarray(want, dtype=float))))
        ok = err <= tol
        self.failed += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {name}: error {err:.3g} (tol {tol:.3g})")


def sample_mean(values) -> tuple[float, float]:
    return float(np.mean(values)), float(np.std(values) / math.sqrt(values.size))


def euler_paths(rng, x, lam, t, dt, m):
    y = np.repeat(np.asarray(x, dtype=float)[None, :], m, axis=0)
    for h in oracles.euler_schedule(t, dt):
        y = y - np.asarray(lam) * y * h + math.sqrt(2.0 * h) * rng.standard_normal(y.shape)
    return y


def check_laws(rep: Report, rng) -> None:
    x = np.array([0.8, -0.4])
    for lam in RATES:
        # Euler chain law vs simulated chains; t = 0.25 ends on a short step
        a, v = oracles.euler_law(lam, 0.25, 0.02)
        y = euler_paths(rng, x, lam, 0.25, 0.02, 400_000)
        se_mean = np.sqrt(v / y.shape[0])
        rep.close(f"euler law mean, lam={lam}", np.mean(y, axis=0), a * x, 5.0 * float(se_mean.max()))
        rep.close(f"euler law var, lam={lam}", np.var(y, axis=0), v, 5.0 * float(v.max()) * math.sqrt(2.0 / y.shape[0]))
        # exact law vs a fine Euler chain (bias O(dt)) and vs the dt -> 0 limit
        a, v = oracles.ou_law(lam, 0.25)
        y = euler_paths(rng, x, lam, 0.25, 1e-3, 200_000)
        tol = 5.0 * float(np.sqrt(v.max() / y.shape[0])) + 2e-3
        rep.close(f"OU law mean, lam={lam}", np.mean(y, axis=0), a * x, tol)
        rep.close(f"OU law var, lam={lam}", np.var(y, axis=0), v, tol + 5.0 * float(v.max()) * math.sqrt(2.0 / y.shape[0]))
        a_fine, v_fine = oracles.euler_law(lam, 0.25, 1e-5)
        rep.close(f"OU law = Euler law as dt -> 0, lam={lam}", np.r_[a_fine, v_fine], np.r_[a, v], 1e-5)


def check_moments(rep: Report, rng) -> None:
    mean, var = np.array([0.3, -0.7]), np.array([0.4, 0.9])
    b = np.array([0.6, -0.5])
    z = mean + np.sqrt(var) * rng.standard_normal((1_000_000, 2))
    m, se = sample_mean(np.exp(z @ b))
    rep.close("exponential moment vs sampling", m, oracles.exp_moment(b, mean, var), 5.0 * se)
    quad = oracles.gauss_expect(lambda y: np.exp(y @ b), mean, var)
    rep.close("exponential moment vs Gauss-Hermite", quad, oracles.exp_moment(b, mean, var), 1e-12)
    for f in FIELDS:
        name = type(f).__name__
        law = (np.array([0.7, 0.9]), var)
        x = np.array([0.4, -0.8])
        quad = oracles.gauss_expect(f.value, law[0] * x, var)
        rep.close(f"{name} kernel vs quadrature", f.kernel(x, law), quad, 1e-12)
        m, se = sample_mean(f.value(law[0] * x + np.sqrt(var) * rng.standard_normal((1_000_000, 2))))
        rep.close(f"{name} kernel vs sampling", f.kernel(x, law), m, 5.0 * se)
        h = 1e-5
        fd = [(f.kernel(x + h * e, law) - f.kernel(x - h * e, law)) / (2 * h) for e in np.eye(2)]
        rep.close(f"{name} kernel gradient vs finite differences", f.kernel_grad(x, law), fd, 1e-8)
        y = rng.uniform(-1.0, 1.0, (64, 2))
        fd = np.stack([(f.value(y + h * e) - f.value(y - h * e)) / (2 * h) for e in np.eye(2)], axis=1)
        rep.close(f"{name} |grad f|^2 vs finite differences", f.grad_sq(y), np.sum(fd * fd, axis=1), 1e-7)
        m, se = sample_mean(np.sqrt(f.grad_sq(mean + np.sqrt(var) * rng.standard_normal((1_000_000, 2)))))
        rep.close(f"{name} E|grad f| vs sampling", f.abs_grad_expect(mean, var), m, 5.0 * se)


def check_memory_term(rep: Report) -> None:
    x = np.array([0.5, -0.25])
    for lam in RATES:
        for f in FIELDS:
            name = f"{type(f).__name__}, lam={lam}"
            exact = oracles.fk_exact(f, x, lam, 0.3)
            rep.close(f"memory term: Gauss-Legendre vs fine Simpson, {name}",
                      oracles.fk_simpson(f, x, lam, 0.3, 401, None), exact, 1e-10 * max(1.0, abs(exact)))
            rep.close(f"memory term: Euler-chain Simpson -> exact as dt -> 0, {name}",
                      oracles.fk_simpson(f, x, lam, 0.3, 21, 1e-4), oracles.fk_simpson(f, x, lam, 0.3, 21, None),
                      2e-3 * max(1.0, abs(exact)))


def fd_generator(g, x, h: float = 1e-4):
    """Finite-difference L g = lap g - x . grad g for the Gaussian potential."""
    lap = np.zeros(x.shape[0])
    drift = np.zeros(x.shape[0])
    g0 = g(x)
    for e in np.eye(x.shape[1]):
        gp, gm = g(x + h * e), g(x - h * e)
        lap += (gp - 2.0 * g0 + gm) / (h * h)
        drift += (x @ e) * (gp - gm) / (2.0 * h)
    return lap - drift


def check_generator(rep: Report, rng) -> None:
    a = np.array([0.4, -0.3, 0.5])
    x = rng.uniform(-1.0, 1.0, (16, 3))

    def exp_a(y):
        return np.exp(y @ a)

    def lf(y):
        return oracles.l_exp(a, y)

    rep.close("L e^{a.x} vs finite differences", oracles.l_exp(a, x), fd_generator(exp_a, x), 1e-5)
    rep.close("L L e^{a.x} vs finite differences of L e^{a.x}", oracles.ll_exp(a, x), fd_generator(lf, x), 1e-5)
    one = oracles.PolyExp({(0, 0, 0): 1.0}, a)
    rep.close("PolyExp L = closed form", one.apply_l().value(x), oracles.l_exp(a, x), 1e-12)
    rep.close("PolyExp L L = closed form", one.apply_l().apply_l().value(x), oracles.ll_exp(a, x), 1e-12)
    gw = oracles.PolyExp.gamma_w_of_exp(a)
    gw_fd = np.exp(2.0 * x @ a) * (a @ a + 1.0 + np.sum(x * x, axis=1))
    rep.close("GammaW(e^{a.x}) as PolyExp", gw.value(x), gw_fd, 1e-12)
    lgw = gw.apply_l()
    rep.close("L GammaW(e^{a.x}) vs finite differences", lgw.value(x), fd_generator(gw.value, x), 1e-4)
    rep.close("L L GammaW(e^{a.x}) vs finite differences", lgw.apply_l().value(x), fd_generator(lgw.value, x), 1e-3)

    # far-field limit of Gamma2W/GammaW on exponentials, from the definition
    # Gamma2W(f) = (L GammaW(f) - 2 GammaW(f, Lf)) / 2 with W^2 = 1 + |x|^2
    for a2 in (np.array([0.0, 0.0]), np.array([0.5, 0.0]), np.array([1.0, 0.0])):
        d = a2 / np.linalg.norm(a2) if a2.any() else np.array([1.0, 0.0])
        y = 1000.0 * d[None, :]
        a_sq, ax = float(a2 @ a2), y @ a2
        # polynomial parts; every term carries the same factor e^{2a.x}
        gw_f_lf = a_sq * (a_sq - ax) - a_sq + (1.0 + np.sum(y * y, axis=1)) * (a_sq - ax)
        gamma_w_f = oracles.PolyExp.gamma_w_of_exp(a2)
        ratio = 0.5 * (gamma_w_f.apply_l().poly(y) - 2.0 * gw_f_lf) / gamma_w_f.poly(y)
        rep.close(f"far-field ratio at r=1000, a={a2.tolist()}", ratio, oracles.far_field_limit(a2), 1e-2)


def check_constants(rep: Report, rng) -> None:
    for n, lam in ((1, (1.0,)), (2, (1.0, 1.0)), (3, (1.0, 1.0, 1.0)), (2, (1.5, 1.0))):
        dirs = np.vstack([np.eye(n), rng.standard_normal((32, n))])
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        r = np.concatenate([[0.0], np.geomspace(1e-3, 1e4, 20_001)])
        best = min(float(np.min(oracles.gamma_integrand(r[:, None] * d[None, :], lam))) for d in dirs)
        rep.close(f"gamma infimum, n={n}, lam={lam}", oracles.gamma_infimum(n, max(lam)), best, 1e-6)

        # c from its definition, with LW by finite differences
        def w(y):
            return np.sqrt(1.0 + np.sum(y * y, axis=-1))

        h = 1e-3
        y = r[::25, None] * dirs[0][None, :]
        for d in dirs[1:8]:
            y = np.vstack([y, r[::25, None] * d[None, :]])
        grad = np.stack([(w(y + h * e) - w(y - h * e)) / (2 * h) for e in np.eye(n)], axis=1)
        lap = sum((w(y + h * e) - 2 * w(y) + w(y - h * e)) / (h * h) for e in np.eye(n))
        lw = lap - np.sum(np.asarray(lam) * y * grad, axis=1)
        c = max(2.0 * float(np.max(np.linalg.norm(grad, axis=1))), float(np.max(min(lam) - lw / w(y))))
        rep.close(f"c constant, n={n}, lam={lam}", oracles.c_constant(n, lam), c, 1e-3)

        # the integrand's closed form against its definition,
        # lap W/W - 3|grad W|^2/W^2 - grad U . grad W/W, by finite differences
        near = y[np.linalg.norm(y, axis=1) < 50.0]
        integrand = lap / w(y) - 3.0 * np.sum(grad * grad, axis=1) / w(y) ** 2 - np.sum(np.asarray(lam) * y * grad, axis=1) / w(y)
        rep.close(f"curvature integrand vs finite differences, n={n}, lam={lam}",
                  oracles.gamma_integrand(near, lam), integrand[np.linalg.norm(y, axis=1) < 50.0], 1e-5)


def main() -> int:
    rng = np.random.default_rng(20210221)
    rep = Report()
    check_laws(rep, rng)
    check_moments(rep, rng)
    check_memory_term(rep)
    check_generator(rep, rng)
    check_constants(rep, rng)
    print(f"{rep.failed} failed")
    return 1 if rep.failed else 0


if __name__ == "__main__":
    sys.exit(main())

"""One workload in a fresh process: set-up, timed rounds, output checks.

    python3 perfbench/workload.py --workload mc_ou --seed 3 --seconds 27 \
        --trace 0 --out .perfbench_out/mc_ou [--setup-only]

Run from the repository root; ``run.py`` starts this script and reads the
JSON object it prints as its last line.  Set-up (imports, config loading,
problem and battery construction) is timed on its own.  A run then does
``round(seconds / ROUND_S[workload])`` rounds, at least one, so every run of
a workload does the same work; a traced run (``--trace 1``) wraps the
package's public functions in spans and does exactly one round.  After
each round the program's outputs are checked against ``oracles.py``; the
checks are not timed.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(1, os.path.join(os.getcwd(), "src"))

CALCULUS_CRITERIA = "2,3,4,5,10"
CALCULUS_GAMMA_DIMS = (1, 2, 3)
L_DIM = 3  # e^{a.x} and GammaW(e^{a.x}) in three dimensions
L_VALUE_POINTS = 4
LL_GW_VALUE_POINTS = 2
LL_GW_BATCH_POINTS = 256
MC = {
    # diagonal rates of U = sum lam_i x_i^2 / 2 in each config file
    "mc_ou": {"config": "mc_ou.ini", "rates": (1.0, 1.0)},
    "mc_generic": {"config": "mc_generic.ini", "rates": (1.5, 1.0)},
}
CHECKS = ("commutation", "variance", "sqrt")
# one round's length on the reference machine (README.md), which sets the
# number of rounds a run does; it is not a time limit
ROUND_S = {"calculus": 40.0, "mc_ou": 6.0, "mc_generic": 7.5}
VARIANCE_TIME_NODES = 21  # verify_variance's Simpson nodes
GRAD_H = 1e-3  # estimate_grad_Qt's central-difference step
N_SE = 6.0  # Monte Carlo agreement band, in standard errors
RTOL = 1e-8


class Checks:
    """Named pass/fail checks of one round."""

    def __init__(self):
        self.attempted = 0
        self.failed: list[str] = []

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed.append(f"{name}: {detail}" if detail else name)


def _close(value: float, ref: float, tol: float) -> bool:
    return math.isfinite(value) and abs(value - ref) <= tol


def _read_csv(path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _read_report(path, dim: int) -> list[dict]:
    """Rows of a ``verify`` CSV.  Labels such as ``exp_a(0.5,0)`` are written
    unquoted, so their commas split them; the label is rejoined from the
    fields between the point coordinates and the six numeric columns."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    head, tail = 2 + dim, len(header) - 3 - dim
    rows = []
    for line in lines[1:]:
        fields = line.split(",")
        label = ",".join(fields[head : len(fields) - tail])
        rows.append(dict(zip(header, fields[:head] + [label] + fields[len(fields) - tail :])))
    return rows


def _run_cli(argv, log_path) -> int:
    from gammaw import cli

    with open(log_path, "a", encoding="utf-8") as log, contextlib.redirect_stdout(log):
        return cli.main(argv)


# ---------------------------------------------------------------------------
# calculus: reproduce-paper criteria, gamma searches, symbolic L
# ---------------------------------------------------------------------------


class Calculus:
    def __init__(self, seed: int, out: str):
        import numpy as np
        from gammaw import presets, verifier

        rng = np.random.default_rng(seed)
        self.out = out
        self.problems = {n: presets.gaussian_problem(n) for n in CALCULUS_GAMMA_DIMS}
        self.a = rng.uniform(-0.6, 0.6, L_DIM)
        self.f = verifier.exp_field(self.a, L_DIM)
        self.pts = rng.uniform(-1.0, 1.0, (L_VALUE_POINTS, L_DIM))
        self.batch = rng.uniform(-1.0, 1.0, (LL_GW_BATCH_POINTS, L_DIM))

    def run(self):
        from gammaw import _tape
        from gammaw.curvature_bounds import SearchConfig, estimate_gamma
        from gammaw.gamma_calculus import apply_L_symbolic, gamma_w_field

        code = _run_cli(
            ["reproduce-paper", "--criteria", CALCULUS_CRITERIA, "--out", os.path.join(self.out, "reproduction")],
            os.path.join(self.out, "cli.log"),
        )
        gammas = {n: estimate_gamma(p, SearchConfig()) for n, p in self.problems.items()}
        p = self.problems[L_DIM]
        lf = apply_L_symbolic(p, self.f)
        llf = apply_L_symbolic(p, lf)
        ll_gw = apply_L_symbolic(p, apply_L_symbolic(p, gamma_w_field(p, self.f, self.f)))
        return {
            "code": code,
            "gammas": gammas,
            "lf": [lf.value(x) for x in self.pts],
            "llf": [llf.value(x) for x in self.pts],
            "ll_gw": [ll_gw.value(x) for x in self.pts[:LL_GW_VALUE_POINTS]],
            "ll_gw_batch": _tape.eval_values(ll_gw, self.batch),
        }

    def check(self, res, chk: Checks) -> None:
        import numpy as np
        import oracles

        chk.check("reproduce-paper exit code", res["code"] == 0, f"exit {res['code']}")
        rep = os.path.join(self.out, "reproduction")

        for n, est in res["gammas"].items():
            ref = oracles.gamma_infimum(n)
            chk.check(f"gamma n={n}", _close(est.value, ref, 1e-6), f"{est.value!r} vs {ref!r}")

        rows = {float(r["p"]): r for r in _read_csv(os.path.join(rep, "ac2.csv"))}
        for p_val, finite in ((1.0, True), (2.0, True), (2.5, False), (3.0, False)):
            row = rows.get(p_val)
            if row is None:
                chk.check(f"AC2 p={p_val}", False, "row missing")
                continue
            g, div = float(row["gamma"]), row["diverging"] == "True"
            if finite:
                ok = math.isfinite(g) and not div
                if p_val == 2.0:
                    ok = ok and _close(g, oracles.gamma_infimum(2), 1e-6)
            else:
                ok = div and g == -math.inf
            chk.check(f"AC2 p={p_val}", ok, f"gamma={g!r} diverging={div}")

        gaps = [float(r["rel_gap"]) for r in _read_csv(os.path.join(rep, "ac3.csv"))]
        chk.check("AC3 worst gap", bool(gaps) and max(gaps) <= 1e-8, f"{max(gaps, default=math.nan):.3e}")

        want = {"sqrt1sq": oracles.gamma_infimum(2), "w_zero": 1.0}
        for r in _read_csv(os.path.join(rep, "ac4.csv")):
            label = r["weight"]
            ok = (
                label in want
                and _close(float(r["kappa"]), want[label], 1e-6)
                and int(float(r["n_samples"])) == 10_000
                and int(float(r["n_violations"])) == 0
                and int(float(r["n_domain_errors"])) == 0
            )
            want.pop(label, None)
            chk.check(f"AC4 {label}", ok, str(r))
        chk.check("AC4 rows", not want, f"missing {sorted(want)}")

        far = [r for r in _read_csv(os.path.join(rep, "ac5.csv")) if float(r["radius"]) == 1000.0]
        chk.check("AC5 rows", len(far) == 4, f"{len(far)} rows at r=1000")
        for r in far:
            a = np.array([float(r["a0"]), float(r["a1"])])
            limit = oracles.far_field_limit(a)
            ratio = float(r["ratio"])
            chk.check(f"AC5 a={a.tolist()}", _close(ratio, limit, 1e-2), f"{ratio!r} vs {limit!r}")

        ll_gw = oracles.PolyExp.gamma_w_of_exp(self.a).apply_l().apply_l()
        pointwise = (
            ("L e^{a.x}", res["lf"], oracles.l_exp(self.a, self.pts)),
            ("L L e^{a.x}", res["llf"], oracles.ll_exp(self.a, self.pts)),
            ("L L GammaW", res["ll_gw"], ll_gw.value(self.pts[:LL_GW_VALUE_POINTS])),
        )
        for name, got, want_v in pointwise:
            for i, (g, w) in enumerate(zip(got, want_v)):
                chk.check(f"{name} point {i}", _close(g, w, RTOL * max(1.0, abs(w))), f"{g!r} vs {w!r}")
        vals, err = res["ll_gw_batch"]
        ref = ll_gw.value(self.batch)
        bad = int(np.sum((err != 0) | ~(np.abs(vals - ref) <= RTOL * np.maximum(1.0, np.abs(ref)))))
        chk.check("LL GammaW tape batch", bad == 0, f"{bad} of {ref.size} points off")

    def hashes(self) -> dict:
        rep = os.path.join(self.out, "reproduction")
        out = {}
        for name in sorted(os.listdir(rep)):
            if name.endswith(".csv"):
                with open(os.path.join(rep, name), "rb") as fh:
                    out[name] = hashlib.sha256(fh.read()).hexdigest()
        return out


# ---------------------------------------------------------------------------
# mc_ou / mc_generic: the three semigroup inequalities through `verify`
# ---------------------------------------------------------------------------


def _ini(path) -> dict:
    import configparser

    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    with open(path, encoding="utf-8") as fh:
        cp.read_string(fh.read())

    def floats(text):
        return [float(v) for v in text.split(",")]

    def points(text):
        return [floats(chunk.strip().strip("()")) for chunk in text.split(";") if chunk.strip()]

    return {
        "dt": cp.getfloat("mc", "dt"),
        "kappa": cp.getfloat("check", "kappa"),
        "rho": cp.getfloat("check", "rho"),
        "c": cp.getfloat("check", "c"),
        "t_values": floats(cp["grids"]["t_values"]),
        "x_points": points(cp["grids"]["x_points"]),
        "a_vectors": points(cp["grids"]["a_vectors"]),
    }


class MonteCarlo:
    def __init__(self, name: str, seed: int, out: str):
        from gammaw import config, verifier

        spec = MC[name]
        self.config = os.path.join(HERE, "configs", spec["config"])
        self.rates = spec["rates"]
        self.seed = seed
        self.out = out
        self.ini = _ini(self.config)
        # the set-up a `verify` run does before its first estimate; the timed
        # rounds redo it inside cli.main, as every user invocation does
        cfg = config.RunConfig.from_file(self.config)
        self.problem = cfg.build_problem()
        self.fields = [verifier.exp_field(a, cfg.dim) for a in cfg.a_list()]
        self.fields += [f for _, f in verifier.battery(cfg.dim)]
        self._refs: dict = {}

    def run(self):
        codes = {}
        for which in CHECKS:
            codes[which] = _run_cli(
                ["verify", which, "--config", self.config, "--seed", str(self.seed),
                 "--out", os.path.join(self.out, f"{which}.csv")],
                os.path.join(self.out, "cli.log"),
            )
        return codes

    def _reference(self, which, label, t, x):
        """(lhs, rhs) pairs of (exact, Euler-chain target, Simpson gap)."""
        import numpy as np
        import oracles

        key = (which, label, t, tuple(x))
        if key in self._refs:
            return self._refs[key]
        ini = self.ini
        f = oracles.battery(ini["a_vectors"])[label]
        lam, dt = self.rates, ini["dt"]
        exact, euler = oracles.ou_law(lam, t), oracles.euler_law(lam, t, dt)
        w2 = float(oracles.weight_sq(np.asarray(x)))
        simpson_gap = 0.0
        if which == "commutation":
            coef = math.exp(-2.0 * ini["kappa"] * t)
            g_x, g_e = oracles.grad_qt(f, x, exact), oracles.central_diff_grad_qt(f, x, euler, GRAD_H)
            q_x, q_e = oracles.qt(f, x, exact), oracles.qt(f, x, euler)
            lhs = (float(g_x @ g_x) + w2 * q_x * q_x, float(g_e @ g_e) + w2 * q_e * q_e)
            rhs = tuple(coef * oracles.expect_gamma_w(f, x, law) for law in (exact, euler))
        elif which == "variance":
            kappa = ini["kappa"]
            coef = (1.0 - math.exp(-2.0 * kappa * t)) / kappa
            fk_x = oracles.fk_simpson(f, x, lam, t, VARIANCE_TIME_NODES, None)
            fk_e = oracles.fk_simpson(f, x, lam, t, VARIANCE_TIME_NODES, dt)
            simpson_gap = abs(fk_x - oracles.fk_exact(f, x, lam, t))
            lhs = tuple(
                oracles.expect_f_sq(f, x, law) - oracles.qt(f, x, law) ** 2 + fk
                for law, fk in ((exact, fk_x), (euler, fk_e))
            )
            rhs = tuple(coef * oracles.expect_gamma_w(f, x, law) for law in (exact, euler))
        else:
            coef = math.exp((ini["c"] - ini["rho"]) * t)
            g_x, g_e = oracles.grad_qt(f, x, exact), oracles.central_diff_grad_qt(f, x, euler, GRAD_H)
            w = math.sqrt(w2)
            lhs = (
                float(np.linalg.norm(g_x)) + w * oracles.qt(f, x, exact),
                float(np.linalg.norm(g_e)) + w * oracles.qt(f, x, euler),
            )
            rhs = tuple(coef * oracles.expect_sqrt_payload(f, x, law) for law in (exact, euler))
        ref = ((lhs[0], lhs[1], simpson_gap), (rhs[0], rhs[1], 0.0))
        self._refs[key] = ref
        return ref

    @staticmethod
    def _agrees(value, se, ref) -> tuple[bool, str]:
        """Within N_SE standard errors of the exact value, widened by the
        Euler-chain and Simpson gaps, so either scheme passes."""
        exact, euler, simpson_gap = ref
        if se == 0.0:  # closed-form route (Mehler): exact to roundoff
            tol = RTOL * max(1.0, abs(exact))
        else:
            tol = N_SE * se + abs(euler - exact) + simpson_gap + RTOL * max(1.0, abs(exact))
        return _close(value, exact, tol), f"{value!r} vs {exact!r} (tol {tol:.3g})"

    def check(self, codes, chk: Checks) -> None:
        import oracles

        ini = self.ini
        lam = self.rates
        dim = len(lam)
        kappa = min(min(lam), oracles.gamma_infimum(dim, max(lam)))
        chk.check("config kappa is analytic", _close(ini["kappa"], kappa, 1e-12), f"{ini['kappa']} vs {kappa}")
        chk.check("config rho is analytic", ini["rho"] == min(lam), f"{ini['rho']}")
        chk.check("config c is analytic", _close(ini["c"], oracles.c_constant(dim, lam), 1e-12), f"{ini['c']}")
        labels = list(oracles.battery(ini["a_vectors"]))
        for which in CHECKS:
            chk.check(f"verify {which} exit code", codes[which] == 0, f"exit {codes[which]}")
            rows = _read_report(os.path.join(self.out, f"{which}.csv"), dim)
            want = len(labels) * len(ini["t_values"]) * len(ini["x_points"])
            chk.check(f"verify {which} cases", len(rows) == want, f"{len(rows)} rows, want {want}")
            for r in rows:
                t = float(r["t"])
                x = [float(r[f"x{i}"]) for i in range(dim)]
                case = f"{which} {r['f_label']} t={t:g} x={x}"
                chk.check(f"{case} verdict", r["verdict"] == "pass", r["verdict"])
                if r["f_label"] not in labels:
                    chk.check(f"{case} label", False, "unknown test function")
                    continue
                ref_l, ref_r = self._reference(which, r["f_label"], t, x)
                ok, msg = self._agrees(float(r["lhs"]), float(r["lhs_se"]), ref_l)
                chk.check(f"{case} lhs", ok, msg)
                ok, msg = self._agrees(float(r["rhs"]), float(r["rhs_se"]), ref_r)
                chk.check(f"{case} rhs", ok, msg)


# ---------------------------------------------------------------------------


def _machine() -> dict:
    import platform

    import numpy
    import scipy
    from gammaw import _tape

    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "backend": _tape.backend_name(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("calculus", *MC))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    os.makedirs(args.out, exist_ok=True)
    import gammaw.cli  # noqa: F401  (the program's entry point and everything it loads)

    if args.workload == "calculus":
        work = Calculus(args.seed, args.out)
    else:
        work = MonteCarlo(args.workload, args.seed, args.out)
    setup_s = time.perf_counter() - _T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.instrument()

    n_rounds = 1 if tracer is not None else max(1, round(args.seconds / ROUND_S[args.workload]))
    rounds: list[float] = []
    chk = Checks()
    for _ in range(n_rounds):
        t0 = time.perf_counter()
        result = work.run()
        rounds.append(time.perf_counter() - t0)
        work.check(result, chk)

    report = {
        "setup_s": setup_s,
        "rounds": rounds,
        "run_s": statistics.median(rounds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": chk.attempted,
        "failed": chk.failed,
        "machine": _machine(),
    }
    if args.workload == "calculus":
        report["artifact_sha256"] = work.hashes()
    if tracer is not None:
        report["per_layer"] = tracer.layer_metrics()
        tracer.save(os.path.join(args.out, "spans.npz"))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())

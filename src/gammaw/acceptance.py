"""Pinned verification suite: ten numbered criteria with fixed seeds.

Each criterion rechecks one headline result of the toolkit end to end
(curvature constants, the p <= 2 boundary, operator algebra, pointwise
curvature-dimension, the optimality limit, the three semigroup
inequalities, the oracle stack, and the small-t expansion), and returns a
CriterionResult carrying a human summary plus CSV artifact lines.

Seeds, grids, and tolerances are pinned so reruns are byte-identical.
``overrides`` (``section.key=value`` strings such as ``"mc.n_paths=1000"``)
deliberately break the pinning for sensitivity runs, in which case noisy
criteria report inconclusive rather than pass.  Only ``mc.*`` and
``search.*`` keys are taken; each criterion applies them, through
``RunConfig._set``, to its own pinned MCConfig or SearchConfig.  Any other
key, and any key or value the config parser rejects, raises ConfigError
before the first criterion runs.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field as dc_field, replace
from functools import partial

import numpy as np

from .config import ConfigError, RunConfig, split_override
from .curvature_bounds import SearchConfig, check_pointwise_cd, estimate_c, estimate_gamma, estimate_rho
from .field_expr import DomainError, const_field
from . import _tape
from .gamma_calculus import (
    apply_L_symbolic,
    gamma2_w,
    gamma2_w_definitional,
    gamma_field,
    gamma_integrand_field,
    gamma_w,
    gamma_w_field,
)
from .presets import gaussian_problem, pq_problem, zero_weight
from .semigroup_mc import (
    MCConfig,
    estimate_Qt_many,
    mehler_fk_term,
    mehler_Qt,
    taylor_Qt,
)
from .verifier import (
    battery,
    csv_table,
    exp_field,
    optimality_study,
    random_problem,
    random_smooth_field,
    VerificationReport,
    verify_commutation,
    verify_sqrt_commutation,
    verify_variance,
    _variance_coefficient,
)

__all__ = ["CriterionResult", "CRITERIA", "run_criterion", "run_all", "write_artifacts", "exit_code"]


@dataclass
class CriterionResult:
    """A criterion returns its verdict, summary lines and CSV lines;
    :func:`run_all` fills in ``cid``, ``name`` and ``elapsed``."""

    passed: bool
    inconclusive: bool
    lines: list[str] = dc_field(default_factory=list)
    csv_lines: list[str] = dc_field(default_factory=list)
    cid: int = 0
    name: str = ""
    elapsed: float = 0.0

    @property
    def status(self) -> str:
        if self.passed:
            return "PASS"
        return "INCONCLUSIVE" if self.inconclusive else "FAIL"

    def summary_text(self) -> str:
        head = f"AC{self.cid} ({self.name}): {self.status} [{self.elapsed:.1f}s]"
        return "\n".join([head] + ["  " + s for s in self.lines])


def _checked_overrides(overrides) -> tuple[str, ...]:
    """The overrides, once they are known to apply: mc.* and search.* keys
    only, each with a value the config parser takes."""
    overrides = tuple(overrides or ())
    for item in overrides:
        key, _ = split_override(item)
        if not key.startswith(("mc.", "search.")):
            raise ConfigError(f"reproduce-paper takes only mc.* and search.* overrides, got {key!r}")
    RunConfig().apply_overrides(overrides)
    return overrides


def _mc_cfg(ov: tuple[str, ...], n_paths: int, seed: int, dt: float = 1e-3) -> MCConfig:
    cfg = RunConfig(mc=MCConfig(n_paths=n_paths, dt=dt, seed=seed))
    cfg.apply_overrides(ov)
    return cfg.mc


def _search_cfg(ov: tuple[str, ...], seed: int) -> SearchConfig:
    cfg = RunConfig(search=SearchConfig(seed=seed))
    cfg.apply_overrides(ov)
    return cfg.search


def _grid2(*pts) -> list[np.ndarray]:
    return [np.asarray(p, dtype=float) for p in pts]


# ---------------------------------------------------------------------------
# AC1: curvature constant of the Gaussian + sqrt(1+|x|^2) family
# ---------------------------------------------------------------------------


def ac1(ov: tuple[str, ...]) -> CriterionResult:
    scfg = _search_cfg(ov, 1)
    lines, rows = [], []
    passed = True
    for n, expected in ((1, -13.0 / 12.0), (2, -1.0), (3, -1.0)):
        p = gaussian_problem(n)
        est = estimate_gamma(p, scfg)
        # pinned 1-D reference in u = 1/(1+|x|^2) on (0, 1]
        u = np.geomspace(1e-9, 1.0, 400_001)
        oracle = float(np.min((n - 2) * u + 3.0 * u * u - 1.0))
        # dense radial scan of the implemented integrand (the quantity is
        # radial), to separate search failures from formula disagreements
        rs = np.concatenate([[0.0], np.geomspace(1e-3, 2000.0, 200_001)])
        pts = np.zeros((rs.size, n))
        pts[:, 0] = rs
        ig = gamma_integrand_field(p)
        radial = float(np.nanmin(_tape.eval_values(ig, pts)[0]))
        err = abs(est.value - expected)
        ok = err <= 1e-6 and not est.diverging and abs(oracle - expected) <= 1e-6
        search_ok = abs(est.value - radial) <= 1e-6
        passed &= ok
        lines.append(
            f"n={n}: gamma={est.value:.9f} expected={expected:.9f} "
            f"oracle={oracle:.9f} radial_scan={radial:.9f} err={err:.2e} "
            f"diverging={est.diverging} -> {'ok' if ok else 'BAD'}"
            + ("" if search_ok else " (search disagrees with radial scan)")
        )
        rows.append([n, est.value, expected, oracle, radial, err, str(est.diverging)])
    return CriterionResult(
        passed, False, lines,
        csv_table(["n", "gamma", "expected", "oracle", "radial_scan", "abs_err", "diverging"], rows),
    )


# ---------------------------------------------------------------------------
# AC2: gamma finite iff p <= 2 in the (p, q=1) family
# ---------------------------------------------------------------------------


def ac2(ov: tuple[str, ...]) -> CriterionResult:
    scfg = _search_cfg(ov, 2)
    lines, rows = [], []
    passed = True
    for p_val, want_finite in ((1.0, True), (2.0, True), (2.5, False), (3.0, False)):
        prob = pq_problem(p_val, 1.0, 2)
        est = estimate_gamma(prob, scfg)
        finite = not est.diverging and math.isfinite(est.value)
        ok = finite == want_finite
        if not want_finite:
            ok = ok and est.value == -math.inf
        passed &= ok
        lines.append(
            f"p={p_val}: gamma={est.value!r} diverging={est.diverging} "
            f"want_finite={want_finite} -> {'ok' if ok else 'BAD'}"
        )
        rows.append([p_val, est.value, str(est.diverging), str(want_finite)])
    return CriterionResult(passed, False, lines, csv_table(["p", "gamma", "diverging", "want_finite"], rows))


# ---------------------------------------------------------------------------
# AC3: expanded weighted Gamma2 vs its semigroup-generator definition
# ---------------------------------------------------------------------------


def ac3(ov: tuple[str, ...]) -> CriterionResult:
    rng = np.random.default_rng(3)
    target = 200
    lines, rows = [], []
    worst = 0.0
    count = skipped = 0
    passed = True
    while count < target:
        dim = int(rng.integers(1, 4))
        prob = random_problem(rng, dim)
        f = random_smooth_field(rng, dim)
        x = rng.uniform(-2.0, 2.0, dim)
        try:
            a = gamma2_w(prob, f, x)
            b = gamma2_w_definitional(prob, f, x)
        except DomainError:
            skipped += 1
            if skipped > 50:
                raise
            continue
        rel = abs(a - b) / max(abs(a), abs(b), 1.0)
        worst = max(worst, rel)
        if rel > 1e-8:
            passed = False
            rows.append([dim, a, b, rel])
        count += 1
    lines.append(f"{count} instances, worst relative gap {worst:.3e} (tol 1e-08), {skipped} resampled")
    if not rows:
        rows.append([0, 0.0, 0.0, worst])
    return CriterionResult(passed, False, lines, csv_table(["dim", "expanded", "definitional", "rel_gap"], rows))


# ---------------------------------------------------------------------------
# AC4: pointwise curvature-dimension with kappa = min(rho, gamma)
# ---------------------------------------------------------------------------


def ac4(ov: tuple[str, ...]) -> CriterionResult:
    scfg = _search_cfg(ov, 4)
    rng = np.random.default_rng(4)
    lines, rows = [], []
    passed = True
    for label, prob in (
        ("sqrt1sq", gaussian_problem(2)),
        ("w_zero", gaussian_problem(2, weight=zero_weight(2))),
    ):
        rho = estimate_rho(prob, scfg)
        gam = estimate_gamma(prob, scfg)
        kappa = min(rho.value, gam.value)
        n_fields, pts_per = 200, 50
        cases = []
        for _ in range(n_fields):
            f = random_smooth_field(rng, 2)
            cases.append((f, rng.uniform(-3.0, 3.0, (pts_per, 2))))
        rep = check_pointwise_cd(prob, cases, kappa)
        viol, derr, checked = rep.n_violations, rep.n_domain_errors, rep.n_checked
        worst = math.inf if rep.worst_margin is None else rep.worst_margin
        ok = viol == 0 and derr == 0 and checked == n_fields * pts_per
        passed &= ok
        lines.append(
            f"{label}: kappa={kappa:.9f}, {checked} samples, {viol} violations, "
            f"{derr} domain errors, worst margin {worst:.3e} -> {'ok' if ok else 'BAD'}"
        )
        rows.append([label, kappa, checked, viol, derr, worst])
    return CriterionResult(
        passed, False, lines,
        csv_table(["weight", "kappa", "n_samples", "n_violations", "n_domain_errors", "worst_margin"], rows),
    )


# ---------------------------------------------------------------------------
# AC5: far-field ratio of the weighted operators on the exponential family
# ---------------------------------------------------------------------------


def ac5(ov: tuple[str, ...]) -> CriterionResult:
    p = gaussian_problem(2)
    a_list = [np.array(a) for a in ((0.0, 0.0), (0.1, 0.0), (0.5, 0.0), (1.0, 0.0))]
    radii = (10.0, 100.0, 1000.0)
    table = optimality_study(p, a_list, radii)
    lines = []
    for row in table.rows:
        if row.radius == 1000.0:
            err = abs(row.ratio - row.limit)
            ok = err <= 1e-2
            lines.append(
                f"|a|={np.linalg.norm(row.a):.2f}: ratio={row.ratio:.6f} "
                f"limit={row.limit:.6f} err={err:.2e} -> {'ok' if ok else 'BAD'}"
            )
    best = table.best_kappa
    ok = abs(best - (-1.0)) <= 1e-2
    lines.append(f"best kappa over battery: {best:.6f} (want -1 +- 1e-02) -> {'ok' if ok else 'BAD'}")
    return CriterionResult(table.check(), False, lines, table.csv_lines())


# ---------------------------------------------------------------------------
# AC6: gradient-type commutation inequality, plus a deliberate failure
# ---------------------------------------------------------------------------


def ac6(ov: tuple[str, ...]) -> CriterionResult:
    p = gaussian_problem(2)
    cfg = _mc_cfg(ov, 100_000, 60)
    t_grid = (0.1, 0.5, 1.0)
    x_grid = _grid2((0.0, 0.0), (1.0, 1.0))
    rep = verify_commutation(p, battery(2), -1.0, t_grid, x_grid, cfg)
    # an over-strong rate must be caught: kappa = -0.5 at t = 1 far out
    rep_neg = verify_commutation(
        p, [("exp_a0.1", exp_field(np.array([0.1, 0.0]), 2))], -0.5, (1.0,),
        _grid2((10.0, 0.0)), cfg,
    )
    lines = [rep.summary(), f"kappa=-0.5 rerun: {rep_neg.n_fail} fail verdicts (want >= 1)"]
    passed = rep.n_fail == 0 and rep.n_inconclusive == 0 and rep_neg.n_fail >= 1
    inconclusive = rep.n_fail == 0 and rep.n_inconclusive > 0
    return CriterionResult(passed, inconclusive, lines, rep.csv_lines() + rep_neg.csv_lines()[1:])


# ---------------------------------------------------------------------------
# AC7: variance inequality with the memory term
# ---------------------------------------------------------------------------


def ac7(ov: tuple[str, ...]) -> CriterionResult:
    p = gaussian_problem(2)
    cfg = _mc_cfg(ov, 25_000, 70)
    t_grid = (0.1, 0.5)
    x_grid = _grid2((0.0, 0.0), (1.0, 1.0))
    # the closed-form spot check below rides on the battery's ensembles
    one = const_field(1.0, 2)
    x0, t = np.zeros(2), 0.1
    fields = battery(2) + [("const_one", one)]
    full = verify_variance(p, fields, -1.0, t_grid, x_grid, cfg, time_nodes=11)
    n_battery = (len(fields) - 1) * len(t_grid) * len(x_grid)
    rep = VerificationReport(full.check_id, full.cases[:n_battery], full.meta)
    lines = [rep.summary()]
    passed = rep.n_fail == 0 and rep.n_inconclusive == 0
    inconclusive = rep.n_fail == 0 and rep.n_inconclusive > 0

    # closed-form spot check: constant f, x = 0, t = 0.1; both sides have
    # independent quadrature oracles, which in turn match the elementary
    # integrals 6t - 2(1 - e^{-2t}) and (e^{2t} - 1)(3 - 2 e^{-2t})
    case = next(c for c in full.cases[n_battery:] if c.t == t and np.array_equal(c.x, x0))
    wsq = p.W * p.W
    lhs_or = mehler_fk_term(p, one, x0, t)
    rhs_or = _variance_coefficient(-1.0, t) * mehler_Qt(p, wsq, x0, t)
    lhs_ref = 6.0 * t - 2.0 * (1.0 - math.exp(-2.0 * t))
    rhs_ref = (math.exp(2.0 * t) - 1.0) * (3.0 - 2.0 * math.exp(-2.0 * t))
    ok = (
        abs(case.lhs - lhs_or) <= 3.0 * max(case.lhs_se, 1e-12)
        and abs(case.rhs - rhs_or) <= 3.0 * max(case.rhs_se, 1e-12)
        and abs(lhs_or - lhs_ref) <= 1e-8
        and abs(rhs_or - rhs_ref) <= 1e-8
    )
    passed &= ok
    lines.append(
        f"const f: lhs={case.lhs:.6f} oracle={lhs_or:.6f} (+-{case.lhs_se:.2e}), "
        f"rhs={case.rhs:.6f} oracle={rhs_or:.6f} (+-{case.rhs_se:.2e}) -> {'ok' if ok else 'BAD'}"
    )
    return CriterionResult(
        passed, inconclusive, lines,
        VerificationReport(rep.check_id, rep.cases + [case]).csv_lines(),
    )


# ---------------------------------------------------------------------------
# AC8: the weight-drift constant c and the square-root commutation bound
# ---------------------------------------------------------------------------


def ac8(ov: tuple[str, ...]) -> CriterionResult:
    p = gaussian_problem(2)
    scfg = _search_cfg(ov, 8)
    c_est = estimate_c(p, 1.0, scfg)
    lines = []
    passed = abs(c_est.value - 2.0) <= 1e-4 and not c_est.diverging

    # brute-force radial oracle: both branches are radial, so a dense 1-D
    # scan out to the search box's corner radius bounds the same sup
    r_max = max(scfg.radii_schedule) * math.sqrt(2.0)
    rs = np.concatenate([[0.0], np.geomspace(1e-3, r_max, 20_000)])
    pts = np.column_stack([rs, np.zeros_like(rs)])
    # a point with an error code is NaN on the tape, and a NaN oracle fails
    radial = _tape.compile_outputs([gamma_field(p, p.W, p.W), apply_L_symbolic(p, p.W), p.W])
    (grad_sq, lw, w), _ = _tape.eval_outputs(radial, pts)
    branch_a = 2.0 * np.sqrt(np.maximum(grad_sq, 0.0))
    branch_b = np.maximum(1.0 - lw / w, 0.0)
    oracle = float(np.max(np.maximum(branch_a, branch_b)))
    ok = abs(oracle - c_est.value) <= 1e-4
    passed &= ok
    lines.append(
        f"c={c_est.value:.9f} (want 2 +- 1e-04), radial oracle {oracle:.9f} -> "
        f"{'ok' if passed else 'BAD'}"
    )

    cfg = _mc_cfg(ov, 50_000, 80)
    rep = verify_sqrt_commutation(
        p, battery(2), 1.0, c_est.value, (0.1, 1.0), _grid2((0.0, 0.0), (2.0, 0.0)), cfg,
    )
    lines.append(rep.summary())
    passed &= rep.n_fail == 0 and rep.n_inconclusive == 0
    inconclusive = rep.n_fail == 0 and rep.n_inconclusive > 0
    head = ["quantity", "value", "reference"]
    extra = csv_table(head, [["c", c_est.value, 2.0], ["radial_oracle", oracle, 2.0]])
    return CriterionResult(passed and not inconclusive, inconclusive, lines, rep.csv_lines() + extra)


# ---------------------------------------------------------------------------
# AC9: sampler vs quadrature vs short-time expansion
# ---------------------------------------------------------------------------


def ac9(ov: tuple[str, ...]) -> CriterionResult:
    p = gaussian_problem(2)
    cfg = _mc_cfg(ov, 20_000, 90)
    lines, rows = [], []
    passed = True
    n_bad = 0
    fields = battery(2)
    x_grid, t_grid = _grid2((0.0, 0.0), (0.5, -0.3)), (0.1, 0.5)
    # one ensemble serves both start points, every field and both times
    ests = estimate_Qt_many(p, [f for _, f in fields], x_grid, t_grid, cfg)
    for i, (label, f) in enumerate(fields):
        for x, by_field in zip(x_grid, ests):
            for t, est in zip(t_grid, by_field[i]):
                ref = mehler_Qt(p, f, x, t)
                gap = abs(est.mean - ref)
                tol = 3.0 * est.stderr + 1e-9 * max(1.0, abs(ref))
                ok = gap <= tol
                n_bad += not ok
                passed &= ok
                rows.append([label, x[0], x[1], t, est.mean, est.stderr, ref, gap])
    lines.append(f"sampler vs quadrature: 20 cases, {n_bad} outside 3 stderr")

    ratio_rows = []
    n_bad = 0
    t_big = 0.02
    for label, f in battery(2):
        for x in _grid2((0.3, 0.2), (0.5, -0.3)):
            e1 = abs(taylor_Qt(p, f, x, t_big) - mehler_Qt(p, f, x, t_big, quad_order=60))
            e2 = abs(taylor_Qt(p, f, x, t_big / 2) - mehler_Qt(p, f, x, t_big / 2, quad_order=60))
            ratio = e1 / e2 if e2 > 0 else math.inf
            ok = 4.0 <= ratio <= 16.0
            n_bad += not ok
            passed &= ok
            ratio_rows.append([label, x[0], x[1], e1, e2, ratio])
    lines.append(f"second-order expansion: 10 cases, {n_bad} with halving ratio outside [4, 16]")
    csv = csv_table(["f_label", "x0", "x1", "t", "mc_mean", "mc_stderr", "quadrature", "abs_gap"], rows)
    csv += csv_table(["f_label", "x0", "x1", "err_t", "err_t_half", "ratio"], ratio_rows)
    return CriterionResult(passed, False, lines, csv)


# ---------------------------------------------------------------------------
# AC10: small-t expansion of the variance inequality recovers the
# pointwise curvature form
# ---------------------------------------------------------------------------


def ac10(ov: tuple[str, ...]) -> CriterionResult:
    p = gaussian_problem(2)
    kappa = -1.0
    t1, t2 = 1e-2, 1e-3
    lines, rows = [], []
    passed = True
    for a in (np.array([0.1, 0.0]), np.array([1.0, 0.0]), np.array([0.5, 0.5])):
        f = exp_field(a, 2)
        gw = gamma_w_field(p, f, f)
        f_sq = f * f
        for x in _grid2((0.0, 0.0), (0.3, -0.2)):
            target = 2.0 * (gamma2_w(p, f, x) - kappa * gamma_w(p, f, f, x))
            errs = {}
            for t in (t1, t2):
                lhs = mehler_Qt(p, f_sq, x, t) - mehler_Qt(p, f, x, t) ** 2 + mehler_fk_term(p, f, x, t)
                rhs = _variance_coefficient(kappa, t) * mehler_Qt(p, gw, x, t, quad_order=60)
                errs[t] = abs((rhs - lhs) / (t * t) - target)
            shrink_ok = errs[t2] <= 0.35 * errs[t1] + 1e-6 * max(1.0, abs(target))
            size_ok = errs[t1] <= 0.2 * max(1.0, abs(target))
            ok = shrink_ok and size_ok
            passed &= ok
            lines.append(
                f"a=({a[0]:g},{a[1]:g}) x=({x[0]:g},{x[1]:g}): target={target:.6f} "
                f"err(t={t1:g})={errs[t1]:.3e} err(t={t2:g})={errs[t2]:.3e} -> {'ok' if ok else 'BAD'}"
            )
            rows.append([a[0], a[1], x[0], x[1], target, errs[t1], errs[t2]])
    return CriterionResult(
        passed, False, lines,
        csv_table(["a0", "a1", "x0", "x1", "target", "err_t1", "err_t2"], rows),
    )


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------


CRITERIA = {
    1: ("gamma-constants", ac1),
    2: ("pq-boundary", ac2),
    3: ("algebra-identity", ac3),
    4: ("pointwise-cd", ac4),
    5: ("optimality-limit", ac5),
    6: ("commutation", ac6),
    7: ("variance", ac7),
    8: ("sqrt-commutation", ac8),
    9: ("oracle-stack", ac9),
    10: ("taylor-consistency", ac10),
}


def run_criterion(cid: int, overrides=()) -> CriterionResult:
    results, _ = run_all([cid], overrides)
    return results[0]


def _worker_count(n_criteria: int) -> int:
    """One worker process per CPU this process may run on, at most one per
    criterion.  The workers are forked, so a platform without fork runs the
    criteria in this process."""
    if n_criteria <= 1 or not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(cpus, n_criteria)


def _run_one(cid: int, ov: tuple[str, ...]) -> CriterionResult:
    name, run = CRITERIA[cid]
    t0 = time.perf_counter()
    res = run(ov)
    return replace(res, cid=cid, name=name, elapsed=time.perf_counter() - t0)


def run_all(criteria=None, overrides=()) -> tuple[list[CriterionResult], int]:
    """Run the given criteria (default: all); return them in id order and
    the number of worker processes that ran them.  Criterion ids and
    overrides are checked before the first criterion runs.

    With more than one worker (one per usable CPU, at most one per
    criterion) the criteria run in forked processes, each timing its own
    criterion.  The seeds and noise labels are pinned, so every result is
    the one the in-process loop gives.  The first exception in id order is
    re-raised once the running criteria finish, and no worker outlives the
    call."""
    ids = sorted(set(criteria)) if criteria else sorted(CRITERIA)
    for cid in ids:
        if cid not in CRITERIA:
            raise ValueError(f"unknown criterion {cid}; valid ids are 1..10")
    ov = _checked_overrides(overrides)
    workers = _worker_count(len(ids))
    if workers == 1:
        return [_run_one(cid, ov) for cid in ids], 1

    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # fork, not spawn: a worker inherits the imported package (a spawned one
    # imports it again, about 0.2 s) and the CRITERIA table as it stands.
    # The executor forks every worker before it starts its own thread, and
    # the launcher flushes sys.stdout and sys.stderr before each fork, so a
    # worker that flushes them as it exits writes no line twice.  map yields
    # in id order and cancels the pending criteria at the first exception.
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
        return list(pool.map(partial(_run_one, ov=ov), ids)), workers


def exit_code(results: list[CriterionResult]) -> int:
    """The CLI's uniform code: 1 when a criterion fails (``summary.txt``
    names it), else 4 when one is inconclusive, else 0."""
    if any(not r.passed and not r.inconclusive for r in results):
        return 1
    if any(r.inconclusive for r in results):
        return 4
    return 0


def write_artifacts(results: list[CriterionResult], out_dir, run_line: str) -> None:
    """Per-criterion CSV and summary files, and ``summary.txt``: one status
    line per criterion, ``run_line`` (the run's workers, wall and CPU
    seconds) and the exit code."""
    os.makedirs(out_dir, exist_ok=True)
    for r in results:
        with open(os.path.join(out_dir, f"ac{r.cid}.csv"), "w", encoding="utf-8") as fh:
            fh.write("\n".join(r.csv_lines) + "\n")
        with open(os.path.join(out_dir, f"ac{r.cid}_summary.txt"), "w", encoding="utf-8") as fh:
            fh.write(r.summary_text() + "\n")
    with open(os.path.join(out_dir, "summary.txt"), "w", encoding="utf-8") as fh:
        for r in results:
            fh.write(f"AC{r.cid} ({r.name}): {r.status} [{r.elapsed:.1f}s]\n")
        fh.write(run_line + "\n")
        fh.write(f"exit code: {exit_code(results)}\n")

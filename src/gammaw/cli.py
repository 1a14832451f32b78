"""Command-line front-end.

Subcommands:

* ``check-curvature``  estimate the Hessian floor rho, the weight-curvature
  constant gamma, kappa = min(rho, gamma), the drift constant c, and run a
  pointwise curvature sweep.
* ``verify {commutation|variance|sqrt|degenerate}``  Monte Carlo checks of
  the corresponding semigroup inequality over the configured grids; writes
  one CSV row per (t, x, f) case.  ``degenerate`` is the commutation check
  at f = 1, W^2 <= e^{-2 kappa t} Q_t(W^2), labelled ``W^2``.
* ``optimality``  far-field ratio table for the exponential family.
* ``reproduce-paper``  run the pinned verification suite (criteria 1-10)
  and write per-criterion artifacts; the criteria run in worker processes,
  one per usable CPU and at most one per criterion.

Every setting goes through ``RunConfig._set``: ``--override sec.key=value``
items apply in order on top of ``--config`` (or the defaults), and ``--seed N``
then sets ``search.seed`` and ``mc.seed``, so it wins over an override.
``reproduce-paper`` has no ``--config`` and takes only ``mc.*`` and
``search.*`` overrides.

Exit codes: 0 ok, 1 fail verdicts (or violations), 2 bad configuration (or
a field nested too deeply for the recursive walkers), 3 domain/sampling
errors, 4 too many inconclusive verdicts.
"""

from __future__ import annotations

import argparse
import ctypes
import math
import os
import sys
import time

import numpy as np

from . import acceptance
from .config import ConfigError, RunConfig
from .curvature_bounds import check_pointwise_cd, estimate_c, estimate_gamma, estimate_rho
from .field_expr import DomainError, ProblemSpec, const_field
from .gamma_calculus import WeightVanishesError
from .semigroup_mc import AggregatePathFailure
from .verifier import (
    battery,
    exp_field,
    optimality_study,
    random_smooth_field,
    verify_commutation,
    verify_sqrt_commutation,
    verify_variance,
)

__all__ = ["main", "cmd_check_curvature", "cmd_verify", "cmd_reproduce_paper", "cmd_optimality"]

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_DOMAIN = 3
EXIT_INCONCLUSIVE = 4

INCONCLUSIVE_FRACTION_LIMIT = 0.2

# glibc's mallopt parameters (malloc.h)
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3


def _keep_freed_memory():
    """Let glibc reuse the large numpy blocks the Euler-Maruyama steps and
    tape chunks free, instead of giving their pages back to the system and
    faulting them in again.  Returns mallopt's two results (1 is success),
    or None where the C library has no mallopt."""
    try:
        # the symbols already loaded into this process; Windows takes no None
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return None
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    # 32 MiB, the largest threshold glibc takes on 64-bit: smaller blocks come from the heap, not mmap
    mmap = mallopt(M_MMAP_THRESHOLD, 32 << 20)
    # 256 MiB, above a pinned run's working set (61 MB in its largest worker),
    # so a free never trims the heap top
    trim = mallopt(M_TRIM_THRESHOLD, 256 << 20)
    return mmap, trim


def _overrides(args) -> list[str]:
    """The --override items, then --seed as search.seed and mc.seed."""
    seed = [] if args.seed is None else [f"search.seed={args.seed}", f"mc.seed={args.seed}"]
    return [*(args.override or []), *seed]


def _load_config(args) -> RunConfig:
    cfg = RunConfig.from_file(args.config) if args.config else RunConfig()
    cfg.apply_overrides(_overrides(args))
    if args.out:
        cfg.out_path = args.out
    return cfg


def _fmt_bound(value: float) -> str:
    if value == -math.inf:
        return "DIVERGENT (-inf)"
    if value == math.inf:
        return "+inf"
    return f"{value:.9f}"


def _cli_battery(cfg: RunConfig):
    fields = []
    for a in cfg.a_list():
        label = "exp_a(" + ",".join(f"{v:g}" for v in a) + ")"
        fields.append((label, exp_field(a, cfg.dim)))
    base = dict(battery(cfg.dim))
    fields.append(("poly_quad", base["poly_quad"]))
    fields.append(("bump", base["bump"]))
    return fields


def _resolve_rho(cfg: RunConfig, p: ProblemSpec):
    """(rho, its search): ``check.rho`` when it is set, with no search
    (None), else the searched estimate."""
    if cfg.rho != "auto":
        return float(cfg.rho), None
    est = estimate_rho(p, cfg.search)
    return est.value, est


def _resolve_kappa(cfg: RunConfig, p: ProblemSpec) -> float:
    if cfg.kappa != "auto":
        return float(cfg.kappa)
    rho, _ = _resolve_rho(cfg, p)
    gam = estimate_gamma(p, cfg.search)
    kappa = min(rho, gam.value)
    print(f"kappa = min(rho, gamma) = min({_fmt_bound(rho)}, {_fmt_bound(gam.value)}) = {_fmt_bound(kappa)}")
    return kappa


def cmd_check_curvature(cfg: RunConfig) -> int:
    p = cfg.build_problem()
    print(f"problem: dim={cfg.dim}, U={cfg.u_spec}, W={cfg.w_spec}")
    rho_value, rho = _resolve_rho(cfg, p)
    print(f"rho:   {_fmt_bound(rho_value)}")
    gam = estimate_gamma(p, cfg.search)
    print(f"gamma: {_fmt_bound(gam.value)}")
    kappa = min(rho_value, gam.value)
    print(f"kappa = min(rho, gamma): {_fmt_bound(kappa)}")
    if rho is not None and rho.diverging:
        print("rho is unbounded below; no curvature bound applies")
        return EXIT_FAIL
    if math.isfinite(rho_value):
        c_est = estimate_c(p, rho_value, cfg.search)
        print(f"c (rho={rho_value:g}): {_fmt_bound(c_est.value)}")
    if kappa == -math.inf:
        print("pointwise bound inapplicable (kappa = -inf); skipping violation sweep")
        return EXIT_OK

    rng = np.random.default_rng(cfg.search.seed)
    fields = battery(cfg.dim) + [
        (f"random_{i}", random_smooth_field(rng, cfg.dim)) for i in range(20)
    ]
    cases = [(f, rng.uniform(-3.0, 3.0, (40, cfg.dim))) for _, f in fields]
    rep = check_pointwise_cd(p, cases, kappa)
    if rep.worst_margin is None:
        raise DomainError(f"pointwise check: all {rep.n_checked} samples are outside the domain of the fields")
    print(
        f"pointwise check (kappa={_fmt_bound(kappa)}): {rep.n_violations} violations on "
        f"{rep.n_checked} samples ({rep.n_domain_errors} domain errors), worst margin {rep.worst_margin:.3e}"
    )
    return EXIT_FAIL if rep.n_violations > 0 else EXIT_OK


def _write_report(report, cfg: RunConfig) -> None:
    if cfg.out_format == "pretty":
        with open(cfg.out_path, "w", encoding="utf-8") as fh:
            fh.write(report.summary() + "\n")
    else:
        report.write_csv(cfg.out_path)
    print(f"wrote {cfg.out_path}")


def cmd_verify(cfg: RunConfig, which: str) -> int:
    p = cfg.build_problem()
    t_grid = cfg.t_values
    x_grid = cfg.x_grid()
    if which == "sqrt":
        rho, _ = _resolve_rho(cfg, p)
        if not math.isfinite(rho):
            raise ConfigError("sqrt check needs a finite rho")
        if cfg.c == "auto":
            c_est = estimate_c(p, rho, cfg.search)
            if c_est.diverging or not math.isfinite(c_est.value):
                raise ConfigError("sqrt check needs a finite c, but the estimate diverges")
            c = c_est.value
        else:
            c = float(cfg.c)
        print(f"rho={rho:g}, c={c:g}")
        report = verify_sqrt_commutation(p, _cli_battery(cfg), rho, c, t_grid, x_grid, cfg.mc)
    else:
        kappa = _resolve_kappa(cfg, p)
        if kappa == -math.inf:
            raise ConfigError("kappa = -inf: the inequality carries no content for this problem")
        if which == "commutation":
            report = verify_commutation(p, _cli_battery(cfg), kappa, t_grid, x_grid, cfg.mc)
        elif which == "variance":
            if kappa == 0.0:
                print("kappa = 0: using the limiting coefficient 2t")
            report = verify_variance(p, _cli_battery(cfg), kappa, t_grid, x_grid, cfg.mc)
        elif which == "degenerate":
            # W^2 <= e^{-2 kappa t} Q_t(W^2): the commutation bound at f = 1
            one = [("W^2", const_field(1.0, cfg.dim))]
            report = verify_commutation(p, one, kappa, t_grid, x_grid, cfg.mc)
        else:
            raise ConfigError(f"unknown verify target {which!r}")
    print(report.summary())
    _write_report(report, cfg)
    if report.n_fail > 0:
        return EXIT_FAIL
    if report.inconclusive_fraction > INCONCLUSIVE_FRACTION_LIMIT:
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def cmd_optimality(cfg: RunConfig) -> int:
    p = cfg.build_problem()
    table = optimality_study(p, cfg.a_list(), cfg.search.radii_schedule)
    for line in table.csv_lines():
        print(line)
    print(f"best kappa: {table.best_kappa:.6f}")
    with open(cfg.out_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(table.csv_lines()) + "\n")
    print(f"wrote {cfg.out_path}")
    return EXIT_OK if table.check() else EXIT_FAIL


def _cpu_s() -> float:
    """User + system seconds of this process and of its reaped children."""
    return sum(os.times()[:4])


def cmd_reproduce_paper(output_dir, overrides=(), criteria=None) -> int:
    wall, cpu = time.perf_counter(), _cpu_s()
    results, workers = acceptance.run_all(criteria=criteria, overrides=overrides)
    wall, cpu = time.perf_counter() - wall, _cpu_s() - cpu
    run_line = f"workers {workers}, wall {wall:.2f} s, cpu {cpu:.2f} s"
    acceptance.write_artifacts(results, output_dir, run_line)
    for r in results:
        print(r.summary_text())
    code = acceptance.exit_code(results)
    print(run_line)
    print(f"artifacts in {output_dir}; exit {code}")
    return code


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gammaw",
        description="Weighted carre-du-champ toolkit: curvature constants and semigroup inequality checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, config=True):
        if config:
            sp.add_argument("--config", help="INI run configuration")
        sp.add_argument("--seed", type=int, help="set both search and MC seeds, after any --override")
        sp.add_argument("--out", help="output path (CSV, or directory for reproduce-paper)")
        sp.add_argument(
            "--override", action="append", metavar="KEY=VALUE",
            help="config override such as mc.n_paths=1000 (repeatable)",
        )

    common(sub.add_parser("check-curvature", help="curvature constants and pointwise sweep"))
    sp = sub.add_parser("verify", help="Monte Carlo inequality verification")
    sp.add_argument("which", choices=("commutation", "variance", "sqrt", "degenerate"))
    common(sp)
    common(sub.add_parser("optimality", help="far-field ratio study"))
    sp = sub.add_parser("reproduce-paper", help="run the pinned verification suite")
    sp.add_argument("--criteria", help="comma-separated criterion ids (default: all)")
    common(sp, config=False)
    return parser


def main(argv=None) -> int:
    _keep_freed_memory()
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "reproduce-paper":
            criteria = None
            if args.criteria:
                criteria = [int(s) for s in args.criteria.split(",") if s.strip()]
            return cmd_reproduce_paper(args.out or "reproduction", _overrides(args), criteria)
        cfg = _load_config(args)
        if args.command == "check-curvature":
            return cmd_check_curvature(cfg)
        if args.command == "verify":
            return cmd_verify(cfg, args.which)
        if args.command == "optimality":
            return cmd_optimality(cfg)
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except RecursionError:
        # the evaluators and derivative builders recurse once per DAG level
        print("error: a field is nested too deeply to evaluate or differentiate", file=sys.stderr)
        return EXIT_CONFIG
    except (DomainError, WeightVanishesError, AggregatePathFailure) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())

import ast
import concurrent.futures
import contextlib
import multiprocessing
import os
import pickle
import platform
import subprocess
import sys
import warnings
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import gammaw
from gammaw import acceptance, cli
from gammaw.cli import main
from gammaw.config import ConfigError, RunConfig
from gammaw.field_expr import DomainError, ParseError
from gammaw.gamma_calculus import WeightVanishesError, gamma_w_field
from gammaw.semigroup_mc import AggregatePathFailure, estimate_Qt_many
from gammaw.verifier import NegativeBatteryError

FAST_2D = """\
[problem]
dim = 2
U = gaussian
W = sqrt1sq

[search]
radii = 10, 100, 1000
grid_per_axis = 21
multistart_count = 2
local_steps = 80
seed = 0

[mc]
n_paths = 2000
dt = 0.01
seed = 0

[grids]
{grids}

[output]
path = {out}
"""

DEFAULT_GRIDS = "t_values = 0.1\nx_points = (0, 0)\na_vectors = (0.1, 0)"


@pytest.fixture
def fast_config(tmp_path):
    def write(grids: str = DEFAULT_GRIDS, check: str = "", out_name: str = "report.csv") -> str:
        out = tmp_path / out_name
        path = tmp_path / "run.ini"
        text = FAST_2D.format(grids=grids, out=out)
        if check:
            text += "[check]\n" + check + "\n"
        path.write_text(text)
        return str(path)

    return write


DEFAULT_TEXT = """\
[problem]
dim = 2
u = gaussian
w = sqrt1sq

[search]
radii = 10.0, 100.0, 1000.0
grid_per_axis = 64
multistart_count = 8
local_steps = 300
seed = 0
tol = 1e-06

[mc]
n_paths = 100000
dt = 0.001
seed = 0
antithetic = true

[check]
kappa = auto
rho = auto
c = auto

[grids]
t_values = 0.1, 0.5, 1.0
x_points = (0.0, 0.0); (1.0, 1.0)
a_vectors = (0.0, 0.0); (0.1, 0.0); (0.5, 0.0); (1.0, 0.0)

[output]
path = report.csv
format = csv

"""


def test_default_config_text():
    # the template the README points to: every key, in schema order
    assert RunConfig().to_text() == DEFAULT_TEXT


def test_config_round_trip():
    cfg = RunConfig()
    again = RunConfig.from_text(cfg.to_text())
    assert again == cfg
    assert again.to_text() == cfg.to_text()
    assert cfg.dim == 2
    assert cfg.t_values == (0.1, 0.5, 1.0)
    assert cfg.x_points == ((0.0, 0.0), (1.0, 1.0))


def test_config_round_trip_keeps_every_digit():
    cfg = RunConfig()
    cfg.apply_overrides([
        "mc.dt=0.0012345678",
        "search.tol=1.234567891e-07",
        "check.kappa=-1.0123456789",
        "grids.t_values=0.1234567891, 0.5",
        "grids.x_points=(0.3333333333, 1)",
    ])
    again = RunConfig.from_text(cfg.to_text())
    assert again.mc.dt == 0.0012345678
    assert again.t_values == (0.1234567891, 0.5)
    assert again == cfg


def test_config_overrides():
    cfg = RunConfig()
    cfg.apply_overrides(["mc.n_paths=500", "search.seed=9"])
    assert cfg.mc.n_paths == 500
    assert cfg.search.seed == 9
    with pytest.raises(ConfigError):
        cfg.apply_overrides(["mc.n_paths"])
    with pytest.raises(ConfigError):
        cfg.apply_overrides(["bogus.key=1"])
    # a dim override must keep the grids consistent
    with pytest.raises(ConfigError):
        RunConfig().apply_overrides(["problem.dim=3"])


PERFBENCH_CONFIGS = Path(__file__).resolve().parent.parent / "perfbench" / "configs"


@pytest.mark.parametrize("name", ["mc_generic.ini", "mc_ou.ini"])
def test_perfbench_configs_round_trip(name):
    cfg = RunConfig.from_file(PERFBENCH_CONFIGS / name)
    again = RunConfig.from_text(cfg.to_text())
    assert again == cfg
    assert again.to_text() == cfg.to_text()


@pytest.mark.parametrize("edit, key", [
    (("[mc]\n", "[mc]\nnpaths = 10\n"), "mc.npaths"),
    (("[output]\n", "[grid]\nt_values = 0.1\n\n[output]\n"), "'grid'"),
    (("[mc]\n", "[mc]\nantithetic = maybe\n"), "mc.antithetic"),
])
def test_bad_config_file_exits_2(fast_config, capsys, edit, key):
    path = Path(fast_config())
    path.write_text(path.read_text().replace(*edit))
    assert main(["check-curvature", "--config", str(path)]) == 2
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("override, key", [
    ("mc.antithetic=maybe", "mc.antithetic"),
    ("search.radii=-5,10", "search.radii"),
    ("grids.x_points=", "grids.x_points"),
    ("grids.t_values=", "grids.t_values"),
])
def test_bad_override_exits_2(override, key, capsys):
    assert main(["check-curvature", "--override", override]) == 2
    assert key in capsys.readouterr().err


def test_config_keys_are_case_insensitive():
    cfg = RunConfig.from_text("[problem]\nu = x0^2/2 + x1^2/2\nW = zero\n[mc]\nN_Paths = 7\n")
    assert (cfg.u_spec, cfg.w_spec, cfg.mc.n_paths) == ("x0^2/2 + x1^2/2", "zero", 7)
    cfg.apply_overrides(["problem.U=gaussian", "mc.N_PATHS=9"])
    assert (cfg.u_spec, cfg.mc.n_paths) == ("gaussian", 9)
    # section names are matched exactly
    with pytest.raises(ConfigError, match="'MC'"):
        cfg.apply_overrides(["MC.n_paths=7"])


def test_values_are_read_literally():
    # no %-interpolation: a '%' in a value is kept, in a file and a round trip
    cfg = RunConfig.from_text("[output]\npath = run%1.csv\n")
    assert cfg.out_path == "run%1.csv"
    assert RunConfig.from_text(cfg.to_text()) == cfg


@pytest.fixture
def fake_criteria(monkeypatch):
    """Replace every criterion by a stub that records the MC and search
    configs it would run with."""
    seen = []

    def stub(cid, name):
        def run(ov):
            mc, search = acceptance._mc_cfg(ov, 10, cid), acceptance._search_cfg(ov, cid)
            seen.append((cid, mc, search))
            # a forked worker's appends stay in the worker; its artifact does not
            line = repr((mc.n_paths, mc.dt, mc.seed, mc.antithetic, search.radii_schedule, search.seed))
            return acceptance.CriterionResult(True, False, csv_lines=[line])
        return run

    stubs = {cid: (name, stub(cid, name)) for cid, (name, _) in acceptance.CRITERIA.items()}
    monkeypatch.setattr(acceptance, "CRITERIA", stubs)
    return seen


@pytest.mark.parametrize("override, key", [
    ("mc.npaths=2000", "mc.npaths"),
    ("problem.W=zero", "problem.W"),
    ("ac3.instances=5", "ac3.instances"),
    ("mc.antithetic=maybe", "mc.antithetic"),
])
def test_reproduce_paper_rejects_bad_override_before_running(fake_criteria, tmp_path, capsys, override, key):
    code = main(["reproduce-paper", "--criteria", "5,6", "--out", str(tmp_path / "r"), "--override", override])
    assert code == 2
    assert key in capsys.readouterr().err
    assert fake_criteria == []
    assert not (tmp_path / "r").exists()


def test_reproduce_paper_has_no_config_flag(fake_criteria, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["reproduce-paper", "--criteria", "5", "--config", str(tmp_path / "x.ini")])
    assert exc.value.code == 2
    assert fake_criteria == []


OVERRIDES_6_2 = [
    "reproduce-paper", "--criteria", "6,2",
    "--override", "mc.n_paths=2000", "--override", "mc.antithetic=off",
    "--override", "search.radii=5, 50",
]


def test_reproduce_paper_overrides_reach_pinned_configs(fake_criteria, cpus, tmp_path):
    cpus(1)
    code = main([*OVERRIDES_6_2, "--out", str(tmp_path / "r")])
    assert code == 0
    assert [cid for cid, _, _ in fake_criteria] == [2, 6]
    for cid, mc, search in fake_criteria:
        assert (mc.n_paths, mc.dt, mc.seed, mc.antithetic) == (2000, 1e-3, cid, False)
        assert (search.radii_schedule, search.seed) == ((5.0, 50.0), cid)


def test_reproduce_paper_overrides_reach_pinned_configs_in_workers(fake_criteria, cpus, tmp_path):
    cpus(2)
    out = tmp_path / "r"
    assert main([*OVERRIDES_6_2, "--out", str(out)]) == 0
    assert fake_criteria == []  # the stubs ran in the workers
    for cid in (2, 6):
        line = (out / f"ac{cid}.csv").read_text().strip()
        assert ast.literal_eval(line) == (2000, 1e-3, cid, False, (5.0, 50.0), cid)
    assert "workers 2, wall " in (out / "summary.txt").read_text()


def test_seed_flag_wins_over_seed_overrides_in_reproduce_paper(fake_criteria, tmp_path):
    code = main([
        "reproduce-paper", "--criteria", "8", "--out", str(tmp_path / "r"), "--seed", "77",
        "--override", "mc.seed=5", "--override", "search.seed=6",
    ])
    assert code == 0
    [(_, mc, search)] = fake_criteria
    assert (mc.seed, search.seed) == (77, 77)


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        RunConfig.from_text("[problem]\ndim = 0\n")
    with pytest.raises(ConfigError):
        RunConfig.from_text("[output]\nformat = yaml\n")
    with pytest.raises(ConfigError):
        RunConfig.from_text("[grids]\nx_points = (1, 2, 3)\n")  # dim mismatch
    with pytest.raises(ConfigError):
        RunConfig.from_text("not an ini at all [")


def test_build_problem_rejects_bad_field_text():
    cfg = RunConfig()
    cfg.w_spec = "x7 + ("
    with pytest.raises(ConfigError):
        cfg.build_problem()


def test_missing_config_file_exits_2(capsys):
    code = main(["check-curvature", "--config", "/nonexistent/run.ini"])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_check_curvature_gaussian(fast_config, capsys):
    code = main(["check-curvature", "--config", fast_config()])
    out = capsys.readouterr().out
    assert code == 0
    assert "rho:   1.000000000" in out
    assert "gamma: -1.062500000" in out
    assert "kappa = min(rho, gamma): -1.062500000" in out
    assert "0 violations" in out


def test_check_curvature_diverging_rho_exits_1(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(
        "[problem]\ndim = 1\nU = -x0^4\nW = zero\n"
        "[search]\ngrid_per_axis = 21\nmultistart_count = 2\nlocal_steps = 60\n"
        "[grids]\nt_values = 0.1\nx_points = (0)\na_vectors = (0.1)\n"
    )
    code = main(["check-curvature", "--config", str(cfg)])
    out = capsys.readouterr().out
    assert code == 1
    assert "unbounded below" in out


# W = sqrt(x0 - 10) is undefined on the pointwise sweep's box [-3, 3]^2, and on
# the whole search box at radius 5
OUTSIDE_DOMAIN = [
    "check-curvature",
    "--override", "problem.W=sqrt(x0-10)",
    "--override", "search.grid_per_axis=9",
    "--override", "search.multistart_count=1",
    "--override", "search.local_steps=20",
]


def test_field_nested_too_deeply_exits_2(capsys):
    # a left-deep sum of 1,500 terms is deeper than the walkers' recursion limit
    w = " + ".join(f"0.001*x0^{k}" for k in range(2, 1502))
    code = main(["check-curvature", "--override", f"problem.W={w}"])
    captured = capsys.readouterr()
    assert code == 2
    assert "nested too deeply" in captured.err


def test_check_curvature_c_without_domain_points_exits_3(capsys):
    code = main([*OUTSIDE_DOMAIN, "--override", "search.radii=5"])
    captured = capsys.readouterr()
    assert code == 3
    assert "DIVERGENT" not in captured.out
    assert "domain of W" in captured.err


def test_search_skips_nelder_mead_without_domain_points(capsys):
    # no start lies in W's domain there; the search must drop them all without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([*OUTSIDE_DOMAIN, "--override", "search.radii=5",
                     "--override", "search.local_steps=300"])
    assert code == 3
    assert "domain of W" in capsys.readouterr().err


def test_check_curvature_all_pointwise_domain_errors_exits_3(capsys):
    code = main([*OUTSIDE_DOMAIN, "--override", "search.radii=20"])
    captured = capsys.readouterr()
    assert code == 3
    assert "c (rho=1):" in captured.out
    assert "outside the domain" in captured.err


def test_verify_commutation_writes_csv(fast_config, tmp_path, capsys):
    cfg = fast_config(check="kappa = -1.0625")
    code = main(["verify", "commutation", "--config", cfg])
    out = capsys.readouterr().out
    assert code == 0
    report = tmp_path / "report.csv"
    lines = report.read_text().strip().splitlines()
    assert lines[0].startswith("check_id,t,x0,x1,f_label")
    assert len(lines) == 4  # exp_a + poly_quad + bump on a 1x1 grid
    assert all(line.endswith("pass") for line in lines[1:])
    assert "wrote" in out


def test_verify_pretty_output(fast_config, tmp_path):
    cfg = fast_config(
        check="kappa = -1.0625", out_name="report.txt"
    )
    code = main([
        "verify", "degenerate", "--config", cfg,
        "--override", "output.format=pretty",
        "--override", f"output.path={tmp_path / 'report.txt'}",
    ])
    assert code == 0
    text = (tmp_path / "report.txt").read_text()
    assert text.startswith("check commutation:")
    assert "worst margin" in text


def test_verify_false_kappa_exits_1(fast_config, capsys):
    cfg = fast_config(
        check="kappa = -0.5",
        grids="t_values = 1.0\nx_points = (10, 0)\na_vectors = (0.1, 0)",
    )
    code = main(["verify", "commutation", "--config", cfg])
    assert code == 1


def test_verify_variance_runs(fast_config):
    cfg = fast_config(check="kappa = -1.0625")
    assert main(["verify", "variance", "--config", cfg]) == 0


def test_verify_variance_at_kappa_zero_takes_2t(fast_config, tmp_path, capsys):
    # the coefficient (1 - e^{-2 kappa t}) / kappa tends to 2t as kappa -> 0
    path = fast_config(check="kappa = 0")
    assert main(["verify", "variance", "--config", path]) == 0
    assert "kappa = 0: using the limiting coefficient 2t" in capsys.readouterr().out
    cfg = RunConfig.from_file(path)
    p = cfg.build_problem()
    fields = cli._cli_battery(cfg)
    (t,), (x,) = cfg.t_values, cfg.x_grid()
    [right] = estimate_Qt_many(p, [gamma_w_field(p, f, f) for _, f in fields], [x], [t], cfg.mc, stream=(0,))
    header, *rows = (tmp_path / "report.csv").read_text().splitlines()
    assert header.split(",")[-4] == "rhs"  # counted from the end: the exp_a label holds a comma
    assert len(rows) == len(fields)
    for row, (q,) in zip(rows, right):
        assert float(row.split(",")[-4]) == 2.0 * t * q.mean


def test_verify_mostly_inconclusive_exits_4(fast_config, capsys):
    # 16 paths leave every stderr far above the 5% cap: no verdict can fail
    cfg = fast_config(check="kappa = -1.0625")
    code = main(["verify", "variance", "--config", cfg, "--override", "mc.n_paths=16"])
    assert code == 4
    assert "inconclusive" in capsys.readouterr().out


def test_verify_sqrt_auto_constants(fast_config, capsys):
    cfg = fast_config()
    code = main(["verify", "sqrt", "--config", cfg])
    out = capsys.readouterr().out
    assert code == 0
    assert "rho=1" in out and "c=2" in out


def test_check_rho_reaches_auto_kappa(fast_config, capsys, monkeypatch):
    # with kappa = auto, a set check.rho is used as it is and rho is not searched
    def no_search(*args):
        raise AssertionError("rho was searched although check.rho is set")

    monkeypatch.setattr(cli, "estimate_rho", no_search)
    cfg = fast_config(check="kappa = auto\nrho = 0.5")
    assert main(["verify", "commutation", "--config", cfg]) == 0
    assert "kappa = min(rho, gamma) = min(0.500000000, " in capsys.readouterr().out


@pytest.mark.parametrize("which", ["commutation", "sqrt"])
def test_gaussian_spellings_write_the_same_csv(fast_config, tmp_path, which):
    # U = gaussian and U = normsq(x)/2 are one potential: both take Mehler's
    # closed forms for the left sides, so the reports are byte-identical
    cfg = fast_config(check="kappa = -1.0625\nrho = 1\nc = 2")
    texts = []
    for u in ("gaussian", "normsq(x)/2"):
        out = tmp_path / f"{which}_{len(texts)}.csv"
        argv = ["verify", which, "--config", cfg, "--override", f"problem.U={u}", "--out", str(out)]
        assert main(argv) == 0
        texts.append(out.read_bytes())
    assert texts[0] == texts[1]
    header, *rows = texts[0].decode().splitlines()
    # counted from the end: the exp_a label holds a comma
    assert header.split(",")[-5] == "lhs_se"
    assert rows and all(row.split(",")[-5] == "0.0" for row in rows)


def test_verify_kappa_minus_inf_exits_2(tmp_path, capsys):
    cfg = tmp_path / "diverge.ini"
    cfg.write_text(
        "[problem]\ndim = 2\nU = pq_potential(3)\nW = pq_weight(1)\n"
        "[search]\ngrid_per_axis = 21\nmultistart_count = 2\nlocal_steps = 60\n"
        "[mc]\nn_paths = 2000\ndt = 0.01\n"
        "[grids]\nt_values = 0.1\nx_points = (0, 0)\na_vectors = (0.1, 0)\n"
        f"[output]\npath = {tmp_path / 'r.csv'}\n"
    )
    code = main(["verify", "commutation", "--config", str(cfg)])
    assert code == 2
    assert "kappa = -inf" in capsys.readouterr().err


def test_verify_blow_up_exits_3(tmp_path, capsys):
    cfg = tmp_path / "blow.ini"
    cfg.write_text(
        "[problem]\ndim = 1\nU = -x0^4\nW = sqrt1sq\n"
        "[check]\nkappa = -1.0\n"
        "[mc]\nn_paths = 200\ndt = 0.01\n"
        "[grids]\nt_values = 0.5\nx_points = (3)\na_vectors = (0.3)\n"
        f"[output]\npath = {tmp_path / 'r.csv'}\n"
    )
    code = main(["verify", "commutation", "--config", str(cfg)])
    assert code == 3
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("name, message", [
    ("mc_generic", "of paths failed"),  # sampled left sides: overflowed paths fail
    ("mc_ou", "overflow at"),  # Mehler closed forms
])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_verify_overflow_exits_3(name, message, tmp_path, capsys):
    # exp(800 x0) overflows near x0 = 1, the second start point
    code = main([
        "verify", "commutation", "--config", str(PERFBENCH_CONFIGS / f"{name}.ini"),
        "--override", "grids.a_vectors=(800, 0)", "--override", "mc.n_paths=200",
        "--out", str(tmp_path / "r.csv"),
    ])
    assert code == 3
    assert message in capsys.readouterr().err


def test_optimality_command(fast_config, tmp_path, capsys):
    cfg = fast_config(
        grids="t_values = 0.1\nx_points = (0, 0)\na_vectors = (0, 0); (0.5, 0); (1, 0)",
        out_name="opt.csv",
    )
    code = main([
        "optimality", "--config", cfg,
        "--override", f"output.path={tmp_path / 'opt.csv'}",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "best kappa: -0.999997" in out
    lines = (tmp_path / "opt.csv").read_text().strip().splitlines()
    assert lines[0] == "a0,a1,radius,ratio,limit,abs_err"
    assert len(lines) == 10  # 3 vectors x 3 radii + header


def test_seed_flag_overrides_both(fast_config):
    cfg_path = fast_config()
    cfg = RunConfig.from_file(cfg_path)
    assert cfg.mc.seed == 0
    from gammaw.cli import _load_config

    class Args:
        config = cfg_path
        seed = 77
        out = None
        override = ["mc.seed=5", "search.seed=6"]  # --seed comes after them

    loaded = _load_config(Args())
    assert loaded.mc.seed == 77
    assert loaded.search.seed == 77


def test_reproduce_paper_selected_criteria(tmp_path, capsys):
    out_dir = tmp_path / "repro"
    code = main(["reproduce-paper", "--criteria", "5,10", "--out", str(out_dir)])
    out = capsys.readouterr().out
    assert code == 0
    assert "AC5" in out and "AC10" in out
    summary = (out_dir / "summary.txt").read_text()
    assert "AC5 (optimality-limit): PASS" in summary
    assert "AC10 (taylor-consistency): PASS" in summary
    assert summary.strip().endswith("exit code: 0")
    assert (out_dir / "ac5.csv").exists()
    assert (out_dir / "ac10_summary.txt").exists()


def test_reproduce_paper_failing_criterion_exits_1(fake_criteria, monkeypatch, tmp_path):
    # a failing criterion exits 1 whatever its id: exit 3 would read as a domain error
    table = dict(acceptance.CRITERIA)
    table[3] = (table[3][0], lambda ov: acceptance.CriterionResult(False, False))
    monkeypatch.setattr(acceptance, "CRITERIA", table)
    out_dir = tmp_path / "repro"
    assert main(["reproduce-paper", "--criteria", "3", "--out", str(out_dir)]) == 1
    summary = (out_dir / "summary.txt").read_text()
    assert "AC3 (algebra-identity): FAIL" in summary
    assert summary.strip().endswith("exit code: 1")


def test_reproduce_paper_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["reproduce-paper", "--criteria", "5", "--out", str(a)]) == 0
    assert main(["reproduce-paper", "--criteria", "5", "--out", str(b)]) == 0
    assert (a / "ac5.csv").read_bytes() == (b / "ac5.csv").read_bytes()
    assert (a / "ac5_summary.txt").read_text() == (b / "ac5_summary.txt").read_text()


def test_reproduce_paper_starved_sampler_is_inconclusive(tmp_path):
    out_dir = tmp_path / "starved"
    code = main([
        "reproduce-paper", "--criteria", "6", "--out", str(out_dir),
        "--override", "mc.n_paths=1000",
    ])
    assert code == 4
    assert "INCONCLUSIVE" in (out_dir / "summary.txt").read_text()


@pytest.fixture
def pool_sizes(monkeypatch):
    """The max_workers of every process pool a run starts."""
    sizes = []

    class Recording(ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
    return sizes


def test_reproduce_paper_workers_are_capped_at_the_criteria(fake_criteria, pool_sizes, cpus, tmp_path):
    cpus(8)
    # one criterion runs in process, however many CPUs there are
    assert main(["reproduce-paper", "--criteria", "5", "--out", str(tmp_path / "a")]) == 0
    assert pool_sizes == []
    assert [cid for cid, _, _ in fake_criteria] == [5]
    assert "workers 1, wall " in (tmp_path / "a" / "summary.txt").read_text()
    assert main(["reproduce-paper", "--criteria", "2,5", "--out", str(tmp_path / "b")]) == 0
    assert pool_sizes == [2]
    assert "workers 2, wall " in (tmp_path / "b" / "summary.txt").read_text()
    assert main(["reproduce-paper", "--criteria", "2,5,10", "--out", str(tmp_path / "c")]) == 0
    assert pool_sizes == [2, 3]


def test_reproduce_paper_workers_without_affinity_or_fork(fake_criteria, pool_sizes, monkeypatch, tmp_path):
    # platforms without sched_getaffinity count every CPU
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert main(["reproduce-paper", "--criteria", "2,5,10", "--out", str(tmp_path / "a")]) == 0
    assert pool_sizes == [2]
    # platforms without fork run the criteria in process
    monkeypatch.delattr(os, "fork")
    assert main(["reproduce-paper", "--criteria", "2,5,10", "--out", str(tmp_path / "b")]) == 0
    assert pool_sizes == [2]
    assert "workers 1, wall " in (tmp_path / "b" / "summary.txt").read_text()


def _raise_in(monkeypatch, errors):
    """Replace criterion ``cid`` by a stub raising ``errors[cid]``."""
    def stub(exc):
        def run(ov):
            raise exc
        return run

    table = dict(acceptance.CRITERIA)
    for cid, exc in errors.items():
        table[cid] = (table[cid][0], stub(exc))
    monkeypatch.setattr(acceptance, "CRITERIA", table)


@pytest.mark.parametrize("errors, code, message", [
    ({2: DomainError("W vanishes at the witness")}, 3, "error: W vanishes at the witness"),
    ({5: AggregatePathFailure("too many failed paths")}, 3, "error: too many failed paths"),
    ({5: AggregatePathFailure("the later one"), 2: DomainError("the lower id")}, 3, "error: the lower id"),
    ({10: ConfigError("mc.dt is bad")}, 2, "error: mc.dt is bad"),
])
def test_reproduce_paper_worker_errors_match_the_serial_run(fake_criteria, monkeypatch, cpus, tmp_path, capsys,
                                                            errors, code, message):
    _raise_in(monkeypatch, errors)
    err = {}
    for workers in (1, 2):
        cpus(workers)
        out = tmp_path / str(workers)
        assert main(["reproduce-paper", "--criteria", "2,5,10", "--out", str(out)]) == code
        err[workers] = capsys.readouterr().err
        assert not out.exists()
        assert multiprocessing.active_children() == []
    assert err[1] == err[2] == message + "\n"


def test_reproduce_paper_prints_each_line_once_into_a_file(fake_criteria, cpus, tmp_path):
    cpus(2)
    # as perfbench runs it: stdout is a file, holding earlier output in its buffer
    log = tmp_path / "cli.log"
    with open(log, "a", encoding="utf-8") as fh, contextlib.redirect_stdout(fh):
        print("an earlier round")
        assert main(["reproduce-paper", "--criteria", "2,5,6", "--out", str(tmp_path / "r")]) == 0
    lines = log.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "an earlier round"
    assert len(lines) == len(set(lines)) == 6
    assert [line.split(" ")[0] for line in lines[1:4]] == ["AC2", "AC5", "AC6"]


@pytest.mark.parametrize("exc", [
    ConfigError("bad key mc.npaths"),
    ParseError("expected ')'", 6),
    DomainError("log of a negative number"),
    WeightVanishesError("W = 0 at x"),
    AggregatePathFailure("3% of paths failed"),
    NegativeBatteryError("test function is negative"),
    RecursionError("maximum recursion depth exceeded"),
])
def test_mapped_errors_survive_a_pickle_round_trip(exc):
    # a worker process sends its exception back pickled
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is type(exc)
    assert str(back) == str(exc)


def test_reproduce_paper_rejects_bad_criteria(fake_criteria, capsys):
    assert main(["reproduce-paper", "--criteria", "11"]) == 2
    assert main(["reproduce-paper", "--criteria", "x"]) == 2
    # an unknown id stops the run before the valid ones start
    assert main(["reproduce-paper", "--criteria", "5,11"]) == 2
    assert fake_criteria == []


def test_cli_battery_labels(fast_config):
    from gammaw.cli import _cli_battery

    cfg = RunConfig.from_file(fast_config())
    labels = [name for name, _ in _cli_battery(cfg)]
    assert labels == ["exp_a(0.1,0)", "poly_quad", "bump"]


def test_x_grid_and_a_list_shapes():
    cfg = RunConfig()
    grid = cfg.x_grid()
    assert len(grid) == 2
    assert all(isinstance(x, np.ndarray) and x.shape == (2,) for x in grid)
    assert [tuple(a) for a in cfg.a_list()] == [
        (0.0, 0.0), (0.1, 0.0), (0.5, 0.0), (1.0, 0.0),
    ]


def _source_env() -> dict:
    src = str(Path(gammaw.__file__).resolve().parent.parent)
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_python_dash_m_runs_the_cli(fast_config, tmp_path):
    res = subprocess.run(
        [sys.executable, "-m", "gammaw", "--help"], env=_source_env(), capture_output=True, text=True, timeout=60,
    )
    assert res.returncode == 0, res.stderr
    assert "reproduce-paper" in res.stdout
    res = subprocess.run(
        [sys.executable, "-m", "gammaw", "verify", "commutation", "--config", fast_config(check="kappa = -1.0625")],
        env=_source_env(), capture_output=True, text=True, timeout=120,
    )
    assert res.returncode == 0, res.stderr
    assert (tmp_path / "report.csv").read_text().startswith("check_id,t,x0,x1,f_label")


def test_cli_import_does_not_load_scipy():
    code = "import sys, gammaw.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    res = subprocess.run(
        [sys.executable, "-c", code], env=_source_env(), capture_output=True, text=True, timeout=60,
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt is glibc's")
def test_allocator_setting_takes_on_glibc():
    assert cli._keep_freed_memory() == (1, 1)


def _no_libc(name):
    raise OSError("no C library")


@pytest.mark.parametrize("cdll", [_no_libc, lambda name: object()], ids=["no-libc", "no-mallopt"])
def test_main_runs_without_mallopt(monkeypatch, fast_config, cdll):
    monkeypatch.setattr(cli.ctypes, "CDLL", cdll)
    assert cli._keep_freed_memory() is None
    assert main(["verify", "commutation", "--config", fast_config(check="kappa = -1.0625")]) == 0


NON_GAUSSIAN_32K = """\
[problem]
dim = 2
U = normsq(x)/2 + 0.25*x0^2
W = sqrt1sq

[mc]
n_paths = 32000
dt = 0.02
seed = 0

[check]
kappa = -1.515625

[grids]
t_values = 0.1
x_points = (1, 0.5)
a_vectors = (0.5, 0)

[output]
path = {out}
"""

# runs main twice in one process and prints the minor page faults of the
# second run
SECOND_ROUND_FAULTS = """\
import contextlib, io, resource, sys
from gammaw.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    main(sys.argv[1:])
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    main(sys.argv[1:])
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def test_second_verify_round_reuses_freed_memory(tmp_path):
    # Euler-Maruyama ensembles free and allocate the same large arrays on
    # every step. With glibc's default thresholds their pages go back to the
    # system and fault in again: about 2,000 minor faults on this second
    # round; with the setting main makes, under 10.
    if cli._keep_freed_memory() is None:
        pytest.skip("the C library has no mallopt")
    path = tmp_path / "generic.ini"
    path.write_text(NON_GAUSSIAN_32K.format(out=tmp_path / "r.csv"))
    res = subprocess.run(
        [sys.executable, "-c", SECOND_ROUND_FAULTS, "verify", "commutation", "--config", str(path)],
        env=_source_env(), capture_output=True, text=True, timeout=120,
    )
    assert res.returncode == 0, res.stderr
    assert int(res.stdout.split()[-1]) < 300

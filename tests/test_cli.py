import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import gammaw
from gammaw import acceptance, cli
from gammaw.cli import main
from gammaw.config import ConfigError, RunConfig

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
            seen.append((cid, acceptance._mc_cfg(ov, 10, cid), acceptance._search_cfg(ov, cid)))
            return acceptance.CriterionResult(True, False, csv_lines=["x"])
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


def test_reproduce_paper_overrides_reach_pinned_configs(fake_criteria, tmp_path):
    code = main([
        "reproduce-paper", "--criteria", "6,2", "--out", str(tmp_path / "r"),
        "--override", "mc.n_paths=2000", "--override", "mc.antithetic=off",
        "--override", "search.radii=5, 50",
    ])
    assert code == 0
    assert [cid for cid, _, _ in fake_criteria] == [2, 6]
    for cid, mc, search in fake_criteria:
        assert (mc.n_paths, mc.dt, mc.seed, mc.antithetic) == (2000, 1e-3, cid, False)
        assert (search.radii_schedule, search.seed) == ((5.0, 50.0), cid)


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
    assert text.startswith("check degenerate:")
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


def test_python_dash_m_runs_the_cli():
    res = subprocess.run(
        [sys.executable, "-m", "gammaw", "--help"], env=_source_env(), capture_output=True, text=True, timeout=60,
    )
    assert res.returncode == 0, res.stderr
    assert "reproduce-paper" in res.stdout


def test_cli_import_does_not_load_scipy():
    code = "import sys, gammaw.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    res = subprocess.run(
        [sys.executable, "-c", code], env=_source_env(), capture_output=True, text=True, timeout=60,
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"

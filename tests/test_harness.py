import io
import json
import os
import re
import subprocess
import sys

import pytest

import transportlab
from transportlab import harness
from transportlab.harness import ExperimentConfig, ExperimentReport, ReportRow


def test_config_validation_messages():
    with pytest.raises(harness.ConfigError, match="seed"):
        ExperimentConfig(experiment="zero-drift-sanity").validate()
    with pytest.raises(harness.ConfigError, match="ladders.eps"):
        ExperimentConfig(experiment="x", seed=1, ladders={"eps": [0.1, 0.2, 0.15]}).validate()
    with pytest.raises(harness.ConfigError, match="positive"):
        ExperimentConfig(experiment="x", seed=1, ladders={"eps": [0.1, -0.2]}).validate()
    with pytest.raises(harness.ConfigError, match="grid.n_x"):
        ExperimentConfig(experiment="x", seed=1, grid={"n_x": -4}).validate()
    ExperimentConfig(experiment="x", seed=1, ladders={"lam": [1.0, 2.0]}).validate()


@pytest.mark.parametrize(
    "override, key",
    [
        ("grid.n_x=abc", "grid.n_x"),
        ("grid.L=abc", "grid.L"),
        ('ladders.eps=["a"]', "ladders.eps"),
        ("grid.n_x=1e400", "grid.n_x"),
        ("ladders.eps=0.1", "ladders.eps"),
        ("grid=3", "grid"),
        ("ladders=3", "ladders"),
        ("grid.dt=NaN", "grid.dt"),
        ("grid.L=Infinity", "grid.L"),
        ("grid.L=true", "grid.L"),
        ("seed=true", "seed"),
        ("ensemble=abc", "ensemble"),
    ],
)
def test_bad_config_values_name_their_key(override, key):
    with pytest.raises(harness.ConfigError, match=f"^{re.escape(key)}: "):
        harness.load_config("zero-drift-sanity", overrides=[override])


@pytest.mark.parametrize(
    "experiment, override, key",
    [
        ("grad-decay", "extra.gamma=abc", "extra.gamma"),
        ("grad-decay", "extra.gamma=NaN", "extra.gamma"),
        ("grad-decay", "extra.eps=true", "extra.eps"),
        ("grad-decay", "extra=3", "extra"),
        ("measure-preservation", "grid.n_side=abc", "grid.n_side"),
        ("measure-preservation", "grid.n_side=16.0", "grid.n_side"),
        ("sobolev-jacobian", "grid.r=abc", "grid.r"),
        ("mean-pde-mc", "extra.probes=0.5", "extra.probes"),
        ("mean-pde-mc", 'extra.probes=[0.5,"a"]', "extra.probes"),
        ("mean-pde-mc", "extra.probes=[]", "extra.probes"),
        ("mean-pde-mc", "extra.probes=[0.5,Infinity]", "extra.probes"),
        # an extra key the stock config lacks is read by no experiment
        ("grad-decay", "extra.gama=0.3", "extra.gama"),
        ("zero-drift-sanity", "extra.gamma=0.3", "extra.gamma"),
        # likewise a grid key
        ("zero-drift-sanity", "grid.n_side=abc", "grid.n_side"),
        ("det-nonuniqueness", "grid.dt=0.1", "grid.dt"),
        # a drift the catalogue cannot build
        ("mean-pde-mc", 'drift={"kind":"nope"}', "drift"),
        ("mean-pde-mc", "drift=[1]", "drift"),
        ("mean-pde-mc", 'drift={"kind":"holder_power"}', "drift"),
        ("conjugated-sde", "drift=abc", "drift"),
    ],
)
def test_bad_grid_and_extra_values_name_their_key(experiment, override, key):
    with pytest.raises(harness.ConfigError, match=f"^{re.escape(key)}: "):
        harness.load_config(experiment, overrides=[override])


def test_grid_and_extra_values_of_the_stock_kind_pass(tmp_path):
    cfg = harness.load_config(
        "mean-pde-mc", overrides=["extra.gamma=0.4", "extra.cap=3", "extra.probes=[0,1.5]", "grid.n_x=1024"]
    )
    assert (cfg.extra["gamma"], cfg.extra["cap"], cfg.extra["probes"]) == (0.4, 3, [0, 1.5])
    assert harness.load_config("measure-preservation", overrides=["grid.n_side=16"]).grid["n_side"] == 16
    # a JSON config file is held to the same kinds and extra keys as --set
    cfg_file = tmp_path / "c.json"
    cfg_file.write_text(json.dumps({"extra": {"gamma": "abc"}}))
    with pytest.raises(harness.ConfigError, match="^extra.gamma: "):
        harness.load_config("grad-decay", path=cfg_file)
    cfg_file.write_text(json.dumps({"extra": {"gama": 0.3}}))
    with pytest.raises(harness.ConfigError, match="^extra.gama: grad-decay reads no such key"):
        harness.load_config("grad-decay", path=cfg_file)


def test_load_config_overrides(tmp_path):
    cfg_file = tmp_path / "c.json"
    cfg_file.write_text(json.dumps({"seed": 7, "grid": {"n_x": 32}}))
    cfg = harness.load_config("zero-drift-sanity", path=cfg_file, overrides=["grid.dt=0.0078125", "seed=9"])
    assert cfg.seed == 9  # flags win over the file
    assert cfg.grid["n_x"] == 32
    assert cfg.grid["dt"] == 0.0078125
    with pytest.raises(harness.ConfigError, match="key=value"):
        harness.load_config("zero-drift-sanity", overrides=["oops"])
    with pytest.raises(KeyError):
        harness.load_config("not-an-experiment")


def test_unknown_config_fields_rejected(tmp_path):
    cfg_file = tmp_path / "c.json"
    cfg_file.write_text(json.dumps({"seed": 7, "bogus": 1}))
    with pytest.raises(harness.ConfigError, match="bogus"):
        harness.load_config("zero-drift-sanity", path=cfg_file)


def test_list_experiments_catalogue():
    entries = harness.list_experiments()
    ids = [e[0] for e in entries]
    assert len(ids) >= 10
    assert "det-nonuniqueness" in ids
    assert "mean-pde-mc" in ids
    assert all(desc for _, desc, _ in entries)


def test_run_experiment_deterministic(tmp_path):
    cfg1 = harness.load_config("zero-drift-sanity", overrides=[f"out_dir={tmp_path}/a"])
    rep1 = harness.run_experiment(cfg1)
    cfg2 = harness.load_config("zero-drift-sanity", overrides=[f"out_dir={tmp_path}/b"])
    rep2 = harness.run_experiment(cfg2)
    csv1 = open(rep1.artifacts[0], "rb").read()
    csv2 = open(rep2.artifacts[0], "rb").read()
    assert csv1 == csv2
    json1 = json.load(open(rep1.artifacts[1]))
    json2 = json.load(open(rep2.artifacts[1]))
    json1["config"]["out_dir"] = json2["config"]["out_dir"] = ""
    assert json1 == json2
    assert rep1.all_pass


def test_report_csv_schema(tmp_path):
    cfg = harness.load_config("zero-drift-sanity", overrides=[f"out_dir={tmp_path}"])
    rep = harness.run_experiment(cfg)
    lines = open(rep.artifacts[0]).read().splitlines()
    assert lines[0] == "experiment,name,params,measured,expected,tolerance,pass"
    assert all(line.split(",")[0] == "zero-drift-sanity" for line in lines[1:])
    # pass flag is a pure function of the stored fields
    payload = json.load(open(rep.artifacts[1]))
    assert all(isinstance(r["passed"], bool) for r in payload["rows"])


def test_plot_data_series(tmp_path):
    cfg = harness.load_config(
        "det-nonuniqueness", overrides=[f"out_dir={tmp_path}", "grid.n_x=128", "grid.n_t=128"]
    )
    rep = harness.run_experiment(cfg)
    buf = io.StringIO()
    harness.emit_plot_data(rep, "a-vs-residual", buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "x,y"
    assert len(lines) == 4
    # same through the JSON artifact
    buf2 = io.StringIO()
    harness.emit_plot_data(rep.artifacts[1], "a-vs-residual", buf2)
    assert buf2.getvalue() == buf.getvalue()
    with pytest.raises(harness.ConfigError, match="unknown series"):
        harness.emit_plot_data(rep, "nope", io.StringIO())


def test_plot_data_empty_report():
    rep = ExperimentReport(experiment="empty", config={}, rows=[], series={})
    buf = io.StringIO()
    harness.emit_plot_data(rep, "whatever", buf)
    assert buf.getvalue().strip() == "x,y"


# the source root that holds the imported package (src/ in a checkout or an
# editable install); absolute, because the child runs in cwd, where a relative
# PYTHONPATH entry no longer resolves
SRC = os.path.dirname(os.path.dirname(os.path.abspath(transportlab.__file__)))


def _run_python(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
    )


def _run_cli(args, cwd):
    return _run_python(["-m", "transportlab.cli", *args], cwd)


def test_scipy_loads_only_for_a_crank_nicolson_solve(tmp_path):
    # scipy's LAPACK wrappers back the Crank-Nicolson factorisation and
    # nothing else, so a process that never solves one never imports scipy
    code = """
import sys
import transportlab
from transportlab import experiments, harness
print("scipy" in sys.modules)
harness.run_experiment(harness.load_config("zero-drift-sanity"), write=False)
print("scipy" in sys.modules)
from transportlab import drift, parabolic
parabolic.solve_backward_resolvent(drift.ZeroDrift(), lambda xs: 0.0 * xs + 1.0, 1.0, L=1.0, n_x=8)
print("scipy" in sys.modules)
"""
    out = _run_python(["-c", code], tmp_path)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["False", "False", "True"]


def test_numpy_ma_stays_unloaded_through_a_median(tmp_path):
    # np.median imports numpy.ma at its first call; the experiments' own
    # median does not, so stochastic-uniqueness's wall time does not pay it
    code = """
import sys
from transportlab import experiments, harness
harness.run_experiment(harness.load_config("stochastic-uniqueness"), write=False)
print("numpy.ma" in sys.modules)
"""
    out = _run_python(["-c", code], tmp_path)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["False"]


def test_cli_list(tmp_path):
    out = _run_cli(["list"], tmp_path)
    assert out.returncode == 0, out.stderr
    assert "zero-drift-sanity" in out.stdout


def test_cli_run_and_plotdata(tmp_path):
    out = _run_cli(
        ["run", "zero-drift-sanity", "--out", str(tmp_path / "runs"), "--set", "grid.n_x=64"],
        tmp_path,
    )
    assert out.returncode == 0, out.stderr
    assert "[pass]" in out.stdout
    report = tmp_path / "runs" / "zero-drift-sanity" / "report.json"
    assert report.exists()

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 2, "grid": {"n_x": 128, "n_t": 128}}))
    out2 = _run_cli(
        ["run", "det-nonuniqueness", "--config", str(cfg), "--out", str(tmp_path / "runs")],
        tmp_path,
    )
    assert out2.returncode == 0, out2.stderr
    rep_json = tmp_path / "runs" / "det-nonuniqueness" / "report.json"
    out3 = _run_cli(["plotdata", str(rep_json), "a-vs-residual"], tmp_path)
    assert out3.returncode == 0, out3.stderr
    assert out3.stdout.startswith("x,y")


def test_cli_exit_code_on_failure(tmp_path):
    # two nearby family members cannot be 0.5 apart: the gap row fails
    out = _run_cli(
        [
            "run",
            "det-nonuniqueness",
            "--out",
            str(tmp_path / "runs"),
            "--set",
            "extra.a_values=[0.4,0.5]",
            "--set",
            "grid.n_x=128",
            "--set",
            "grid.n_t=128",
        ],
        tmp_path,
    )
    # a bound check that fails and an uncaught exception both exit with 1
    assert out.returncode == 1, out.stderr
    assert "Traceback" not in out.stderr
    assert "[FAIL] det-nonuniqueness/min_pairwise_gap:" in out.stdout


@pytest.mark.parametrize(
    "experiment, override, key",
    [
        ("grad-decay", "extra.gamma=abc", "extra.gamma"),
        ("measure-preservation", "grid.n_side=abc", "grid.n_side"),
        ("grad-decay", "extra.gama=0.3", "extra.gama"),
        ("zero-drift-sanity", "grid.n_side=abc", "grid.n_side"),
        ("mean-pde-mc", 'drift={"kind":"nope"}', "drift"),
    ],
)
def test_cli_bad_config_value_is_a_usage_error(tmp_path, experiment, override, key):
    out = _run_cli(["run", experiment, "--out", str(tmp_path / "runs"), "--set", override], tmp_path)
    assert out.returncode == 2
    assert "Traceback" not in out.stderr
    assert f"lab: error: {key}: " in out.stderr
    assert not (tmp_path / "runs").exists()


def test_cli_refuses_random_shift_sqrt_kind(tmp_path):
    out = _run_cli(
        ["run", "mean-pde-mc", "--out", str(tmp_path / "runs"), "--set", 'drift={"kind":"random_shift_sqrt"}'],
        tmp_path,
    )
    assert out.returncode == 2
    assert "Traceback" not in out.stderr
    assert "lab: error: drift: unknown drift kind: 'random_shift_sqrt'" in out.stderr


@pytest.mark.parametrize(
    "report, series, message",
    [("report.json", "nosuch", "unknown series 'nosuch'; report has: a-vs-b"), ("missing.json", "a-vs-b", "missing.json")],
    ids=["unknown-series", "missing-report"],
)
def test_cli_plotdata_bad_input_is_a_usage_error(tmp_path, report, series, message):
    (tmp_path / "report.json").write_text(json.dumps({"series": {"a-vs-b": [[1.0, 2.0]]}}))
    out = _run_cli(["plotdata", str(tmp_path / report), series, "--out", str(tmp_path / "xy.csv")], tmp_path)
    assert out.returncode == 2
    assert "Traceback" not in out.stderr
    assert "lab: error: " in out.stderr and message in out.stderr
    assert not (tmp_path / "xy.csv").exists()
    ok = _run_cli(["plotdata", str(tmp_path / "report.json"), "a-vs-b", "--out", str(tmp_path / "xy.csv")], tmp_path)
    assert ok.returncode == 0, ok.stderr
    assert (tmp_path / "xy.csv").read_text() == "x,y\n1,2\n"


def test_row_pass_flag_consistency():
    row = ReportRow(name="x", params={}, measured=0.1, expected="0", tolerance="<1", passed=True)
    rep = ExperimentReport(experiment="e", config={}, rows=[row])
    assert rep.all_pass
    rep.rows.append(ReportRow(name="y", params={}, measured=2.0, expected="0", tolerance="<1", passed=False))
    assert not rep.all_pass


def test_config_drift_override(tmp_path):
    cfg_file = tmp_path / "c.json"
    cfg_file.write_text(json.dumps({"seed": 11, "drift": {"kind": "zero", "dim": 1}}))
    cfg = harness.load_config("conjugated-sde", path=cfg_file)
    assert cfg.drift == {"kind": "zero", "dim": 1}  # parsed, and echoed in the report as given
    rep = harness.run_experiment(cfg, write=False)
    rows = {r.name: r for r in rep.rows}
    # zero drift: psi vanishes, the two routes coincide up to rounding
    assert rows["grad_sup"].measured == 0.0
    assert rows["sup_difference"].measured < 1e-10

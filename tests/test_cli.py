"""Command-line interface: subcommands, exit codes, file round trips."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from spectradag.cli import _config_flag_type, main
from spectradag.cpsd import PsdmEstimate, default_gamma, estimate_psdm, load_psdm, save_psdm
from spectradag.graphs import dag_from_edgelist, dag_to_edgelist, random_dag
from spectradag.models import NoiseSpec, build_model, exact_psdm, model_from_json
from spectradag.seeding import STREAM_MODEL, seed_path
from spectradag.simulate import load_trajectories, simulate

OMEGA_3_16 = 2.0 * math.pi * 3.0 / 16.0


def run_cli(*argv):
    return main(list(argv))


def gen_model_files(tmp_path, p=4, q=1, seed=3):
    model_path = tmp_path / "model.json"
    dag_path = tmp_path / "dag.txt"
    rc = run_cli(
        "gen",
        "--p",
        str(p),
        "--q",
        str(q),
        "--seed",
        str(seed),
        "--out-model",
        str(model_path),
        "--out-dag",
        str(dag_path),
    )
    assert rc == 0
    return model_path, dag_path


# ---------------------------------------------------------------------------
# gen


def test_gen_writes_trial_zero_model(tmp_path):
    model_path, dag_path = gen_model_files(tmp_path, p=4, q=1, seed=3)
    model = model_from_json(model_path.read_text())
    # the generated model is experiment trial 0 for the same root seed
    expected_dag = random_dag(4, 1, seed_path(3, STREAM_MODEL, 0, 0, 0))
    expected = build_model(expected_dag, NoiseSpec("iid"), seed_path(3, STREAM_MODEL, 0, 0, 1))
    assert model.dag == expected.dag
    assert np.array_equal(model.b, expected.b)
    assert dag_from_edgelist(dag_path.read_text()) == model.dag


def test_gen_stdout_when_no_output_path(capsys):
    rc = run_cli("gen", "--p", "3", "--q", "1", "--seed", "8")
    assert rc == 0
    model = model_from_json(capsys.readouterr().out)
    assert model.p == 3


def test_gen_trial_flag_changes_model(tmp_path):
    a, _ = gen_model_files(tmp_path, seed=3)
    b_path = tmp_path / "m2.json"
    rc = run_cli(
        "gen", "--p", "4", "--q", "1", "--seed", "3", "--trial", "1",
        "--out-model", str(b_path),
    )
    assert rc == 0
    m_a = model_from_json(a.read_text())
    m_b = model_from_json(b_path.read_text())
    assert not np.array_equal(m_a.b, m_b.b)


def test_gen_bad_args_exit_code_1():
    assert run_cli("gen", "--p", "0", "--q", "0") == 1
    assert run_cli("gen", "--p", "3", "--q", "1", "--bogus-flag") == 1
    assert run_cli("no-such-command") == 1
    assert run_cli() == 1


def test_gen_infinite_noise_variance_exit_code_1(tmp_path):
    model_path = tmp_path / "m.json"
    rc = run_cli("gen", "--p", "3", "--q", "1", "--sigma-w", "inf", "--out-model", str(model_path))
    assert rc == 1
    assert not model_path.exists()


@pytest.mark.parametrize("command", ["gen", "simulate", "tail"])
def test_negative_seed_exit_code_1(tmp_path, capsys, command):
    # numpy rejects a negative seed with a bare ValueError; the CLI reports it
    model_path, _ = gen_model_files(tmp_path, p=3, q=1, seed=5)
    capsys.readouterr()
    out = tmp_path / "out"
    argv = {
        "gen": ["gen", "--p", "3", "--q", "1", "--out-model", str(out)],
        "simulate": ["simulate", "--model", str(model_path), "--strategy", "continuous",
                     "--n", "2", "--num-samples", "4", "--out-dir", str(out)],
        "tail": ["tail", "--p", "2", "--q", "1", "--n", "10", "--num-samples", "8",
                 "--trials", "100", "--omega-index", "1", "--out", str(out)],
    }[command]
    assert run_cli(*argv, "--seed", "-1") == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


# ---------------------------------------------------------------------------
# simulate / estimate


def test_simulate_then_estimate_round_trip(tmp_path):
    model_path, _ = gen_model_files(tmp_path, p=3, q=1, seed=5)
    traj_dir = tmp_path / "traj"
    rc = run_cli(
        "simulate",
        "--model",
        str(model_path),
        "--strategy",
        "restart_record",
        "--n",
        "5",
        "--num-samples",
        "16",
        "--seed",
        "11",
        "--out-dir",
        str(traj_dir),
    )
    assert rc == 0
    traj, manifest = load_trajectories(traj_dir)
    assert traj.n == 5 and traj.num_samples == 16
    assert manifest["seed"] == 11

    model = model_from_json(model_path.read_text())
    oracle = simulate(model, "restart_record", 5, 16, seed=11)
    assert np.allclose(traj.data, oracle.data, atol=1e-12)

    psdm_path = tmp_path / "psdm.csv"
    rc = run_cli(
        "estimate",
        "--traj-dir",
        str(traj_dir),
        "--omega-index",
        "3",
        "--out",
        str(psdm_path),
    )
    assert rc == 0
    est = load_psdm(psdm_path)
    expected = estimate_psdm(oracle, OMEGA_3_16)
    assert est.omega == pytest.approx(OMEGA_3_16, abs=1e-15)
    assert np.allclose(est.matrix, expected.matrix, atol=1e-12)
    assert est.n == 5 and est.num_samples == 16


def test_estimate_needs_exactly_one_omega_form(tmp_path):
    model_path, _ = gen_model_files(tmp_path, p=3, q=1, seed=5)
    traj_dir = tmp_path / "traj"
    run_cli(
        "simulate", "--model", str(model_path), "--strategy", "continuous",
        "--n", "3", "--num-samples", "8", "--seed", "1", "--out-dir", str(traj_dir),
    )
    out = str(tmp_path / "x.csv")
    assert run_cli("estimate", "--traj-dir", str(traj_dir), "--out", out) == 1
    assert (
        run_cli(
            "estimate", "--traj-dir", str(traj_dir), "--omega-index", "2",
            "--omega", "0.5", "--out", out,
        )
        == 1
    )


@pytest.mark.parametrize("omega", ["nan", "inf"])
def test_non_finite_omega_exit_code_1(tmp_path, omega):
    model_path, _ = gen_model_files(tmp_path, p=3, q=1, seed=5)
    traj_dir = tmp_path / "traj"
    rc = run_cli(
        "simulate", "--model", str(model_path), "--strategy", "continuous",
        "--n", "3", "--num-samples", "8", "--seed", "1", "--out-dir", str(traj_dir),
    )
    assert rc == 0
    out = tmp_path / "out.txt"
    commands = [
        ["estimate", "--traj-dir", str(traj_dir), "--out", str(out)],
        ["reconstruct", "--traj-dir", str(traj_dir), "--q", "1", "--gamma", "0.1",
         "--out-dag", str(out)],
        ["tail", "--p", "2", "--q", "1", "--n", "300", "--num-samples", "16",
         "--trials", "100", "--seed", "9", "--out", str(out)],
    ]
    for argv in commands:
        assert run_cli(*argv, "--omega", omega) == 1, argv[0]
        assert not out.exists(), argv[0]


def test_estimate_missing_dir_exit_code_3(tmp_path):
    rc = run_cli(
        "estimate",
        "--traj-dir",
        str(tmp_path / "nowhere"),
        "--omega-index",
        "1",
        "--out",
        str(tmp_path / "x.csv"),
    )
    assert rc == 3


@pytest.mark.parametrize(
    "manifest", ["[]", '{"strategy": "continuous", "n": null, "N": 8}'], ids=["list", "n-null"]
)
def test_estimate_malformed_manifest_exit_code_1(tmp_path, manifest):
    model_path, _ = gen_model_files(tmp_path, p=3, q=1, seed=5)
    traj_dir = tmp_path / "traj"
    rc = run_cli(
        "simulate", "--model", str(model_path), "--strategy", "continuous",
        "--n", "3", "--num-samples", "8", "--seed", "1", "--out-dir", str(traj_dir),
    )
    assert rc == 0
    (traj_dir / "manifest.json").write_text(manifest)
    out = tmp_path / "x.csv"
    rc = run_cli("estimate", "--traj-dir", str(traj_dir), "--omega-index", "1", "--out", str(out))
    assert rc == 1
    assert not out.exists()


def test_estimate_per_trajectory_csv_directory_exit_code_3(tmp_path):
    # the one-CSV-per-trajectory layout has no trajectories.npy to read
    traj_dir = tmp_path / "traj"
    traj_dir.mkdir()
    manifest = {"strategy": "continuous", "n": 1, "N": 2, "seed": 1,
                "model_hash": None, "files": ["traj_00000.csv"]}
    (traj_dir / "manifest.json").write_text(json.dumps(manifest))
    (traj_dir / "traj_00000.csv").write_text("t,node0\n0,0.5\n1,-0.25\n")
    out = tmp_path / "x.csv"
    rc = run_cli("estimate", "--traj-dir", str(traj_dir), "--omega-index", "1", "--out", str(out))
    assert rc == 3
    assert not out.exists()


def test_removed_sampler_and_parent_flags_exit_code_1(tmp_path):
    # the recursion sampler, the optset parent rule and the search modes are
    # gone, with their flags
    model_path, _ = gen_model_files(tmp_path, p=3, q=1, seed=5)
    sim = ["simulate", "--model", str(model_path), "--strategy", "continuous",
           "--n", "3", "--num-samples", "8", "--seed", "1"]
    assert run_cli(*sim, "--method", "exact", "--out-dir", str(tmp_path / "a")) == 1
    assert run_cli(*sim, "--burn-in", "5", "--out-dir", str(tmp_path / "b")) == 1
    assert not (tmp_path / "a").exists() and not (tmp_path / "b").exists()
    assert run_cli(*sim, "--out-dir", str(tmp_path / "traj")) == 0
    rec = ["reconstruct", "--traj-dir", str(tmp_path / "traj"), "--omega-index", "2",
           "--q", "1", "--gamma", "0.1", "--out-dag", str(tmp_path / "rec.txt")]
    assert run_cli(*rec, "--parent-sets", "prefix") == 1
    assert run_cli(*rec, "--search", "fixed_size") == 1
    assert not (tmp_path / "rec.txt").exists()
    assert run_cli(*rec) == 0


# ---------------------------------------------------------------------------
# reconstruct


def test_reconstruct_from_population_psdm(tmp_path):
    model = build_model(random_dag(5, 2, seed=21), NoiseSpec("iid"), seed=21)
    est = PsdmEstimate(
        omega=OMEGA_3_16, matrix=exact_psdm(model, OMEGA_3_16), n=1, num_samples=16
    )
    psdm_path = tmp_path / "pop.csv"
    save_psdm(est, psdm_path)
    gamma = default_gamma(model, [OMEGA_3_16])
    dag_out = tmp_path / "recovered.txt"
    audit_out = tmp_path / "audit.json"
    rc = run_cli(
        "reconstruct",
        "--psdm",
        str(psdm_path),
        "--q",
        "2",
        "--gamma",
        repr(gamma),
        "--out-dag",
        str(dag_out),
        "--out-audit",
        str(audit_out),
    )
    assert rc == 0
    assert dag_out.read_text() == dag_to_edgelist(model.dag)
    audit = json.loads(audit_out.read_text())
    assert sorted(audit["order"]) == list(range(5))
    assert set(map(tuple, audit["edges"])) == set(model.dag.edges)


def test_reconstruct_stdout_default(tmp_path, capsys):
    model = build_model(random_dag(3, 1, seed=2), NoiseSpec("iid"), seed=2)
    est = PsdmEstimate(
        omega=OMEGA_3_16, matrix=exact_psdm(model, OMEGA_3_16), n=1, num_samples=16
    )
    psdm_path = tmp_path / "pop.csv"
    save_psdm(est, psdm_path)
    gamma = default_gamma(model, [OMEGA_3_16])
    rc = run_cli("reconstruct", "--psdm", str(psdm_path), "--q", "1", "--gamma", repr(gamma))
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("p=3\n")
    assert '"order"' in out


def test_reconstruct_from_trajectories(tmp_path):
    model_path, _ = gen_model_files(tmp_path, p=3, q=1, seed=5)
    traj_dir = tmp_path / "traj"
    run_cli(
        "simulate", "--model", str(model_path), "--strategy", "restart_record",
        "--n", "400", "--num-samples", "16", "--seed", "11", "--out-dir", str(traj_dir),
    )
    model = model_from_json(model_path.read_text())
    gamma = default_gamma(model, [OMEGA_3_16])
    dag_out = tmp_path / "rec.txt"
    rc = run_cli(
        "reconstruct", "--traj-dir", str(traj_dir), "--omega-index", "3",
        "--q", "1", "--gamma", repr(gamma), "--out-dag", str(dag_out),
    )
    assert rc == 0
    recovered = dag_from_edgelist(dag_out.read_text())
    assert recovered.p == 3


def test_reconstruct_input_validation(tmp_path):
    out = str(tmp_path / "o.txt")
    assert run_cli("reconstruct", "--q", "1", "--gamma", "0.1", "--out-dag", out) == 1
    model_path, _ = gen_model_files(tmp_path, p=3, q=1, seed=5)
    traj_dir = tmp_path / "traj"
    run_cli(
        "simulate", "--model", str(model_path), "--strategy", "continuous",
        "--n", "3", "--num-samples", "8", "--seed", "1", "--out-dir", str(traj_dir),
    )
    # trajectories need a frequency
    assert (
        run_cli(
            "reconstruct", "--traj-dir", str(traj_dir), "--q", "1",
            "--gamma", "0.1", "--out-dag", out,
        )
        == 1
    )
    # a negative index in a PSDM file is rejected, not wrapped around
    psdm_path = tmp_path / "neg.csv"
    psdm_path.write_text(
        "# omega=0.1,n=2,N=4\nrow,col,re,im\n"
        "0,0,1.0,0.0\n0,1,0.1,0.0\n1,0,0.1,0.0\n-1,1,2.0,0.0\n"
    )
    assert run_cli("reconstruct", "--psdm", str(psdm_path), "--q", "1",
                   "--gamma", "0.1", "--out-dag", out) == 1
    assert not (tmp_path / "o.txt").exists()


@pytest.mark.parametrize("gamma", ["inf", "nan"])
def test_reconstruct_non_finite_gamma_exit_code_1(tmp_path, gamma):
    model = build_model(random_dag(5, 2, seed=21), NoiseSpec("iid"), seed=21)
    psdm_path = tmp_path / "pop.csv"
    save_psdm(PsdmEstimate(OMEGA_3_16, exact_psdm(model, OMEGA_3_16), 1, 16), psdm_path)
    out = tmp_path / "o.txt"
    assert run_cli("reconstruct", "--psdm", str(psdm_path), "--q", "1",
                   "--gamma", gamma, "--out-dag", str(out)) == 1
    assert not out.exists()


def test_reconstruct_psdm_with_bad_sample_counts_exit_code_1(tmp_path):
    psdm_path = tmp_path / "bad.csv"
    psdm_path.write_text(
        "# omega=0.5,n=-4,N=0\nrow,col,re,im\n"
        "0,0,1.0,0.0\n0,1,0.1,0.0\n1,0,0.1,0.0\n1,1,2.0,0.0\n"
    )
    out = tmp_path / "o.txt"
    assert run_cli("reconstruct", "--psdm", str(psdm_path), "--q", "1",
                   "--gamma", "0.1", "--out-dag", str(out)) == 1
    assert not out.exists()


def test_reconstruct_numerical_failure_exit_code_2(tmp_path):
    # Hermitian but indefinite: the Schur complement f(1, {0}) = 1 - 4 is
    # properly negative, which no valid PSDM can produce
    bad = PsdmEstimate(
        omega=0.5,
        matrix=np.array([[1.0, 2.0], [2.0, 1.0]], dtype=complex),
        n=1,
        num_samples=8,
    )
    path = tmp_path / "bad.csv"
    save_psdm(bad, path)
    rc = run_cli(
        "reconstruct", "--psdm", str(path), "--q", "1", "--gamma", "0.1",
        "--out-dag", str(tmp_path / "o.txt"),
    )
    assert rc == 2


# ---------------------------------------------------------------------------
# experiment


def test_experiment_flags_override_config_and_bytes_deterministic(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        json.dumps(
            {
                "p": 3,
                "q": 1,
                "n_grid": [10, 30],
                "num_samples": 16,
                "omega_index": 3,
                "trials": 2,
                "seed": 7,
            }
        )
    )
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    for out in (out_a, out_b):
        rc = run_cli(
            "experiment",
            "--config",
            str(cfg_path),
            "--trials",
            "3",
            "--noise",
            "iid",
            "--out",
            str(out),
        )
        assert rc == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    lines = out_a.read_text().splitlines()
    assert lines[0].startswith("p,q,noise,strategy,N,")
    # 1 noise x 2 strategies x 2 grid points
    assert len(lines) == 5
    for row in lines[1:]:
        fields = row.split(",")
        assert fields[7] == "3"  # --trials flag beat the config file
        assert fields[11] == "0.0"  # wall times zeroed by default


def test_experiment_without_config_file(tmp_path):
    out = tmp_path / "r.csv"
    rc = run_cli(
        "experiment",
        "--p",
        "3",
        "--q",
        "1",
        "--n-grid",
        "10,30",
        "--num-samples",
        "16",
        "--omega-index",
        "3",
        "--trials",
        "2",
        "--seed",
        "1",
        "--strategies",
        "continuous",
        "--out",
        str(out),
    )
    assert rc == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 3
    assert all(row.split(",")[3] == "continuous" for row in lines[1:])


def test_experiment_config_errors_exit_code_1(tmp_path):
    out = str(tmp_path / "r.csv")
    assert run_cli("experiment", "--p", "3", "--q", "5", "--n-grid", "10", "--out", out) == 1
    bad_cfg = tmp_path / "bad.json"
    bad_cfg.write_text("{not json")
    assert run_cli("experiment", "--config", str(bad_cfg), "--out", out) == 1
    unknown_cfg = tmp_path / "unknown.json"
    unknown_cfg.write_text('{"p": 3, "q": 1, "n_grid": [5], "mystery": 1}')
    assert run_cli("experiment", "--config", str(unknown_cfg), "--out", out) == 1


def test_experiment_flag_type_from_annotation():
    # a config field of a type the CLI cannot parse fails when the parser is built
    assert _config_flag_type(int) is int
    assert _config_flag_type(float | None) is float
    assert _config_flag_type(tuple[NoiseSpec, ...])("iid,ar1") == ["iid", "ar1"]
    for hint in (bool, int | str, list[int], tuple[float, ...]):
        with pytest.raises(TypeError, match="no command-line type"):
            _config_flag_type(hint)


# ---------------------------------------------------------------------------
# tail


def test_tail_writes_table(tmp_path):
    out = tmp_path / "tail.csv"
    rc = run_cli(
        "tail",
        "--p",
        "2",
        "--q",
        "1",
        "--n",
        "300",
        "--num-samples",
        "16",
        "--trials",
        "100",
        "--omega-index",
        "3",
        "--seed",
        "9",
        "--out",
        str(out),
    )
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,empirical_restart_record,empirical_continuous,bound"
    assert len(lines) == 21


def test_tail_trials_precondition_exit_code_1(tmp_path):
    rc = run_cli(
        "tail", "--p", "2", "--q", "1", "--n", "50", "--num-samples", "8",
        "--trials", "10", "--omega-index", "1", "--seed", "0",
        "--out", str(tmp_path / "t.csv"),
    )
    assert rc == 1


# ---------------------------------------------------------------------------
# bounds


def test_bounds_recovery_lower_json(capsys):
    rc = run_cli(
        "bounds", "--kind", "recovery_lower", "--p", "10", "--q", "2",
        "--beta", "0.5", "--m-bound", "2.0", "--delta", "0.1",
    )
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "recovery_lower"
    assert abs(doc["value"] - 3.2747876878137545) < 1e-9


def test_bounds_trajectory_length_json(capsys):
    rc = run_cli(
        "bounds", "--kind", "trajectory_length", "--c-decay", "1.0",
        "--rho", "2.0", "--epsilon1", "0.1",
    )
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["value"] == 41


@pytest.mark.parametrize(
    "args",
    [
        ("--kind", "recovery_upper", "--p", "10", "--q", "2", "--m-bound", "inf",
         "--epsilon2", "0.1", "--delta", "0.1"),
        ("--kind", "recovery_lower", "--p", "10", "--q", "2", "--beta", "inf",
         "--m-bound", "2.0", "--delta", "0.1"),
        ("--kind", "trajectory_length", "--c-decay", "nan", "--rho", "2.0",
         "--epsilon1", "0.1"),
    ],
)
def test_bounds_non_finite_input_exit_code_1(capsys, args):
    assert run_cli("bounds", *args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be finite" in captured.err


def test_bounds_missing_inputs_exit_code_1():
    assert run_cli("bounds", "--kind", "recovery_lower", "--p", "10") == 1
    assert run_cli("bounds", "--kind", "no-such-kind", "--p", "10") == 1


# ---------------------------------------------------------------------------
# process-level entry


def test_module_entry_point_subprocess():
    # the child does not see pytest's pythonpath, so pass src the way test_demos does
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(__file__).resolve().parent.parent / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [
            sys.executable, "-m", "spectradag.cli", "bounds", "--kind",
            "trajectory_length", "--c-decay", "1.0", "--rho", "2.0",
            "--epsilon1", "0.1",
        ],
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["value"] == 41

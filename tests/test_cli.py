import json
import os

import pytest

from attractorlab.cli import SEED_ENV, main


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def dir_bytes(out):
    return {
        name: read(os.path.join(out, name))
        for name in sorted(os.listdir(out))
        if name != "manifest.json"
    }


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "attractorlab" in capsys.readouterr().out


def test_no_arguments_is_usage_error(capsys):
    assert main([]) == 1


def test_unknown_flag_is_usage_error(capsys):
    assert main(["netgrowth", "--frobnicate", "1"]) == 1
    assert "usage" in capsys.readouterr().err


def test_missing_config_file_names_path(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(["run", "--config", missing]) == 1
    assert "nope.json" in capsys.readouterr().err


def test_bad_config_value_exits_one(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "kind": "netgrowth", "master_seed": 1, "replicates": 0,
        "params": {"n_nodes": 10},
    }))
    assert main(["run", "--config", str(path)]) == 1
    assert "replicates" in capsys.readouterr().err


def test_replicator_shortcut_deterministic(tmp_path, capsys):
    args = ["replicator", "--pc", "2", "--pd", "1", "--x0", "0.1",
            "--t-end", "2", "--seed", "7", "--quiet"]
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(args + ["--out", out_a]) == 0
    assert main(args + ["--out", out_b]) == 0
    assert dir_bytes(out_a) == dir_bytes(out_b)
    # data-bearing files never include log lines
    first = read(os.path.join(out_a, "trajectory_0000.csv")).decode().splitlines()[0]
    assert first == "t,x"
    assert capsys.readouterr().out == ""


def test_netgrowth_shortcut_spec_flags(tmp_path):
    out = str(tmp_path / "ng")
    code = main(["netgrowth", "--seeds", "2,1", "--nodes", "300",
                 "--replicates", "5", "--tau", "0.9", "--seed", "42",
                 "--out", out, "--quiet"])
    assert code == 0
    assert os.path.exists(os.path.join(out, "shares_0004.csv"))
    assert os.path.exists(os.path.join(out, "summary.csv"))


def test_flag_and_file_configs_agree(tmp_path):
    out_flags = str(tmp_path / "flags")
    assert main(["netgrowth", "--seeds", "3,1", "--nodes", "250",
                 "--replicates", "4", "--seed", "11", "--out", out_flags,
                 "--quiet"]) == 0

    config = {
        "kind": "netgrowth", "master_seed": 11, "replicates": 4,
        "output_dir": str(tmp_path / "file"),
        "params": {"n_nodes": 250, "seed_agi": 3, "seed_dci": 1},
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(config))
    assert main(["run", "--config", str(path), "--quiet"]) == 0
    assert dir_bytes(out_flags) == dir_bytes(config["output_dir"])


def test_env_seed_override_and_flag_precedence(tmp_path, monkeypatch):
    base = ["netgrowth", "--seeds", "1,1", "--nodes", "150",
            "--replicates", "2", "--quiet"]
    out_default = str(tmp_path / "d")
    assert main(base + ["--out", out_default]) == 0  # master_seed defaults to 0

    monkeypatch.setenv(SEED_ENV, "123")
    out_env = str(tmp_path / "e")
    assert main(base + ["--out", out_env]) == 0
    assert dir_bytes(out_env) != dir_bytes(out_default)

    out_env2 = str(tmp_path / "e2")
    monkeypatch.setenv(SEED_ENV, "123")
    assert main(base + ["--out", out_env2]) == 0
    assert dir_bytes(out_env2) == dir_bytes(out_env)

    # explicit flag wins over the environment
    out_flag = str(tmp_path / "f")
    assert main(base + ["--out", out_flag, "--seed", "0"]) == 0
    assert dir_bytes(out_flag) == dir_bytes(out_default)


def test_env_seed_must_be_integer(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(SEED_ENV, "abc")
    assert main(["netgrowth", "--seeds", "1,1", "--nodes", "10",
                 "--out", str(tmp_path / "x"), "--quiet"]) == 1
    assert SEED_ENV in capsys.readouterr().err


def test_abm_and_basin_shortcuts(tmp_path):
    out = str(tmp_path / "abm")
    assert main(["abm", "--n", "40", "--x0", "1.0", "--game", "1,0,0,1",
                 "--rounds", "3", "--replicates", "2", "--seed", "5",
                 "--out", out, "--quiet"]) == 0
    assert os.path.exists(os.path.join(out, "abm_0001.csv"))

    out2 = str(tmp_path / "basin")
    assert main(["basin", "--n", "40", "--x0-list", "0,1", "--game", "1,0,0,1",
                 "--rounds", "3", "--replicates", "2", "--seed", "5",
                 "--out", out2, "--quiet"]) == 0
    assert os.path.exists(os.path.join(out2, "summary.csv"))


def test_bifurcate_and_hysteresis_shortcuts(tmp_path):
    assert main(["bifurcate", "--theta", "1", "--lambda-lo", "-0.2",
                 "--lambda-hi", "0.2", "--step", "0.1", "--grid-n", "128",
                 "--out", str(tmp_path / "bif"), "--quiet"]) == 0
    assert os.path.exists(os.path.join(str(tmp_path / "bif"), "bifurcation.csv"))

    assert main(["hysteresis", "--theta", "-1", "--lambda-lo", "-0.2",
                 "--lambda-hi", "0.2", "--step", "0.1",
                 "--out", str(tmp_path / "h"), "--quiet"]) == 0
    assert os.path.exists(os.path.join(str(tmp_path / "h"), "hysteresis.csv"))


def test_report_prints_aligned_table(tmp_path, capsys):
    out = str(tmp_path / "run")
    assert main(["netgrowth", "--seeds", "2,1", "--nodes", "100",
                 "--replicates", "3", "--seed", "1", "--out", out,
                 "--quiet"]) == 0
    assert main(["report", out]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split()[:2] == ["metric", "mean"]
    assert any(line.startswith("final_agi_share") for line in lines)
    # aligned columns: 'mean' starts at the same offset everywhere
    offset = lines[0].index("mean")
    assert all(len(line) >= offset for line in lines[1:])


def test_report_missing_dir(tmp_path, capsys):
    assert main(["report", str(tmp_path / "void")]) == 1
    assert "summary" in capsys.readouterr().err


def test_imported_topology_via_file(tmp_path):
    edges = tmp_path / "ring.edges"
    edges.write_text("0 1\n1 2\n2 3\n3 0\n")
    out = str(tmp_path / "imported")
    assert main(["abm", "--n", "4", "--x0", "1.0", "--game", "1,0,0,1",
                 "--rounds", "2", "--topology", f"file:{edges}",
                 "--out", out, "--quiet", "--seed", "3"]) == 0
    assert os.path.exists(os.path.join(out, "abm_0000.csv"))


def test_jobs_flag_reproduces_serial_bytes(tmp_path):
    base = ["netgrowth", "--seeds", "2,1", "--nodes", "200", "--replicates", "4",
            "--seed", "21", "--quiet"]
    out_serial, out_pool = str(tmp_path / "s"), str(tmp_path / "p")
    assert main(base + ["--out", out_serial]) == 0
    assert main(base + ["--out", out_pool, "--jobs", "3"]) == 0
    assert dir_bytes(out_serial) == dir_bytes(out_pool)


def test_rerun_with_fewer_replicates_removes_stale_files(tmp_path):
    # files the previous manifest listed go; a file no manifest listed stays
    out = tmp_path / "ng"
    base = ["netgrowth", "--seeds", "1,1", "--nodes", "50", "--seed", "5", "--out", str(out),
            "--quiet"]
    assert main(base + ["--replicates", "5"]) == 0
    (out / "notes.txt").write_text("mine\n")
    assert main(base + ["--replicates", "2"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert sorted(manifest["files"]) == ["shares_0000.csv", "shares_0001.csv", "summary.csv"]
    assert sorted(os.listdir(out)) == sorted([*manifest["files"], "manifest.json", "notes.txt"])


def test_exit_two_run_keeps_an_unlisted_file_it_would_replace(tmp_path, capsys):
    # no manifest; a directory named summary.csv fails the run after every
    # trace is written, and the unlisted shares_0000.csv keeps its bytes
    out = tmp_path / "ng"
    (out / "summary.csv").mkdir(parents=True)
    (out / "shares_0000.csv").write_text("mine\n")
    assert main(["netgrowth", "--seeds", "2,1", "--nodes", "50", "--replicates", "3",
                 "--out", str(out), "--quiet"]) == 2
    assert "summary.csv" in capsys.readouterr().err
    assert sorted(os.listdir(out)) == ["shares_0000.csv", "summary.csv"]
    assert (out / "shares_0000.csv").read_text() == "mine\n"


def test_finished_run_removes_temporary_files_a_killed_run_left(tmp_path):
    # a run killed before its commit leaves <name>.tmp<pid> files; the next
    # run that finishes removes them and keeps every other unlisted file
    out = tmp_path / "ng"
    out.mkdir()
    kept = {"notes.txt": "mine\n", "shares_0003.csv.bak": "backup\n"}
    for name, text in {**kept, "shares_0003.csv.tmp99999": "partial"}.items():
        (out / name).write_text(text)
    assert main(["netgrowth", "--seeds", "2,1", "--nodes", "50", "--replicates", "2",
                 "--out", str(out), "--quiet"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert sorted(os.listdir(out)) == sorted([*manifest["files"], "manifest.json", *kept])
    for name, text in kept.items():
        assert (out / name).read_text() == text


def test_empty_out_exits_one_and_keeps_the_run_in_the_working_directory(
        tmp_path, monkeypatch, capsys):
    # an empty output_dir is a config error, raised before anything is read
    # or removed; joined with "" the cleanup would unlink files in the cwd
    monkeypatch.chdir(tmp_path)
    base = ["netgrowth", "--seeds", "1,1", "--nodes", "5", "--replicates", "2", "--quiet"]
    assert main(base + ["--out", "."]) == 0
    before = {name: read(name) for name in os.listdir(".")}
    assert "manifest.json" in before and "summary.csv" in before
    capsys.readouterr()
    assert main(base + ["--out", ""]) == 1
    assert "output_dir" in capsys.readouterr().err
    assert {name: read(name) for name in os.listdir(".")} == before


def test_relaxation_overflow_exits_two_and_leaves_the_directory(tmp_path, capsys):
    # a coarse relax_dt overshoots until a Python float cube overflows; the
    # run fails as a named divergence and removes only what it wrote
    out = tmp_path / "h"
    out.mkdir()
    (out / "notes.txt").write_text("mine\n")
    assert main(["hysteresis", "--theta", "1", "--lambda-lo", "-0.6", "--lambda-hi", "0.6",
                 "--step", "0.1", "--relax-dt", "5", "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "OverflowError" not in err
    assert "NumericalDivergenceError" in err and "relax_dt" in err
    assert os.listdir(out) == ["notes.txt"]
    assert (out / "notes.txt").read_text() == "mine\n"


def test_imported_graph_defects_fail_at_load(tmp_path, capsys):
    # an out-of-range node id and an isolated node both exit 1 before any run
    cases = {"range": ("0 1\n1 2\n2 7\n3 0\n", "node 7"),
             "isolated": ("0 1\n1 2\n2 0\n", "node 3")}
    for name, (text, named) in cases.items():
        edges = tmp_path / f"{name}.edges"
        edges.write_text(text)
        out = tmp_path / f"out_{name}"
        assert main(["abm", "--n", "4", "--x0", "0.5", "--game", "1,0,0,1",
                     "--rounds", "2", "--topology", f"file:{edges}",
                     "--out", str(out), "--quiet"]) == 1
        assert named in capsys.readouterr().err
        assert not out.exists()


def test_run_seed_override_is_validated(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"kind": "netgrowth", "master_seed": 1, "replicates": 1,
                                "params": {"n_nodes": 10}}))
    out = tmp_path / "neg"
    assert main(["run", "--config", str(path), "--seed", "-1", "--out", str(out)]) == 1
    assert "master_seed" in capsys.readouterr().err
    assert not out.exists()


def test_run_config_reads_an_imported_graph_once(tmp_path, monkeypatch):
    # --seed and --out are applied before the one load of the config
    from attractorlab import abm

    edges = tmp_path / "ring.edges"
    edges.write_text("0 1\n1 2\n2 3\n3 0\n")
    calls = []
    load = abm.load_edge_list
    monkeypatch.setattr(abm, "load_edge_list", lambda text: calls.append(1) or load(text))
    path = tmp_path / "abm.json"
    path.write_text(json.dumps({
        "kind": "abm", "master_seed": 1, "replicates": 2, "output_dir": str(tmp_path / "unused"),
        "params": {"n": 4, "x0": 0.5, "rounds": 2, "game": {"r": 1, "sg": 0, "t": 0, "pu": 1},
                   "topology": {"kind": "imported", "path": str(edges)}},
    }))
    out = tmp_path / "o"
    assert main(["run", "--config", str(path), "--seed", "4", "--out", str(out), "--quiet"]) == 0
    assert len(calls) == 1
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["master_seed"] == 4
    assert manifest["config"]["output_dir"] == str(out)
    assert not (tmp_path / "unused").exists()


def test_run_config_errors_keep_the_loader_messages(tmp_path, capsys):
    cases = {"syntax": ('{"kind": "netgrowth",\n  oops}', "line 2, column 3"),
             "list": ("[1, 2]", "config must be an object")}
    for name, (text, message) in cases.items():
        path = tmp_path / f"{name}.json"
        path.write_text(text)
        out = tmp_path / f"out_{name}"
        assert main(["run", "--config", str(path), "--seed", "3", "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()


def _hysteresis_run(tmp_path, capsys, **params):
    from test_acceptance import DETERMINISM_DOCS

    doc = {"kind": "hysteresis", "master_seed": 1234, "replicates": 1,
           "params": {**DETERMINISM_DOCS["hysteresis"]["params"], **params}}
    path = tmp_path / "hysteresis.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "h"
    assert main(["run", "--config", str(path), "--out", str(out), "--quiet"]) == 0
    with open(out / "manifest.json", encoding="utf-8") as fh:
        manifest = json.load(fh)
    return manifest["diagnostics"], capsys.readouterr().err


def test_hysteresis_non_equilibration_is_reported(tmp_path, capsys):
    diagnostics, err = _hysteresis_run(tmp_path, capsys, relax_t=0.05)
    assert diagnostics == {"non_equilibrated": 74}
    assert err.count("warning") == 1
    assert "non_equilibrated = 74" in err


def test_hysteresis_default_relaxation_has_no_warning(tmp_path, capsys):
    diagnostics, err = _hysteresis_run(tmp_path, capsys)
    assert diagnostics == {"non_equilibrated": 0}
    assert "warning" not in err


_SWEEP_ARGS = ["--theta", "1", "--lambda-lo", "-0.2", "--lambda-hi", "0.2", "--step", "0.1"]
_POPULATION_ARGS = ["--n", "20", "--game", "1,0,0,1", "--rounds", "2"]


@pytest.mark.parametrize("argv, named", [
    (["bifurcate", *_SWEEP_ARGS, "--step", "0"], "step"),
    (["bifurcate", *_SWEEP_ARGS, "--lambda-hi", "-0.2"], "lambda_lo"),
    (["bifurcate", *_SWEEP_ARGS, "--grid-n", "1"], "grid_n"),
    (["bifurcate", *_SWEEP_ARGS, "--theta", "nan"], "theta"),
    (["hysteresis", *_SWEEP_ARGS, "--lambda-hi", "-0.3"], "lambda_lo"),
    (["hysteresis", *_SWEEP_ARGS, "--step", "-0.1"], "step"),
    (["hysteresis", *_SWEEP_ARGS, "--relax-t", "0"], "relax_t"),
    (["hysteresis", *_SWEEP_ARGS, "--relax-dt", "0"], "relax_dt"),
    (["hysteresis", *_SWEEP_ARGS, "--jump-tol", "-1"], "jump_tol"),
    (["abm", *_POPULATION_ARGS, "--x0", "0.5", "--sc", "0.9", "--sd", "0.1"], "s_c"),
    (["abm", *_POPULATION_ARGS, "--x0", "0.5", "--sc", "0.5", "--sd", "0.5"], "s_c"),
    (["basin", *_POPULATION_ARGS, "--x0-list", "0.5", "--sd", "1.5"], "s_d"),
    (["basin", *_POPULATION_ARGS, "--x0-list", "0.2,0.5,1.5"], "x0"),
], ids=lambda value: "-".join(value) if isinstance(value, list) else value)
def test_bad_sweep_or_threshold_params_exit_one(tmp_path, capsys, argv, named):
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out), "--quiet"]) == 1
    assert named in capsys.readouterr().err
    assert not out.exists()


def test_repeated_x0_exits_one_and_writes_nothing(tmp_path, capsys):
    # summary and metrics are keyed by x0, so a repeat would silently merge
    # two cells; the config is rejected before any replicate runs
    out = tmp_path / "b"
    assert main(["basin", "--n", "50", "--x0-list", "0.5,0.5", "--game", "1,0,0,1",
                 "--rounds", "3", "--replicates", "4", "--out", str(out), "--quiet"]) == 1
    assert "x0=0.5 is repeated" in capsys.readouterr().err
    assert not out.exists()

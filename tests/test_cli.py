import json
import os
import tracemalloc
from dataclasses import replace

import pytest

from attractorlab.cli import SEED_ENV, _verified_manifest, build_parser, main
from attractorlab.harness import KINDS, REQUIRED


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


_EDGES = "".join(f"{i} {(i + 1) % 20}\n" for i in range(20))  # a 20-node ring
_POPULATION_DOC = {"n": 20, "game": {"r": 1, "sg": 0.5, "t": 0.2, "pu": 1}, "rounds": 4,
                   "update": {"kind": "fermi", "beta": 2}, "noise": 0.05, "s_c": 0.2, "s_d": 0.8}

# Per kind, a flag line that sets every params key to a value other than its
# default, and the params of the equivalent file run.  Written out by hand,
# not derived from the flag naming rule, so a wrongly named flag fails.
# replicator takes p_c/p_d or game, never both, so it has two lines.
_FLAG_LINES = [
    ("replicator", "replicator --x0 0.3 --t-end 2 --dt 0.01 --pc 2 --pd 1.5",
     {"x0": 0.3, "t_end": 2, "dt": 0.01, "p_c": 2, "p_d": 1.5}),
    ("replicator", "replicator --x0 0.3 --t-end 2 --dt 0.01 --game 3,0,5,1",
     {"x0": 0.3, "t_end": 2, "dt": 0.01, "game": {"r": 3, "sg": 0, "t": 5, "pu": 1}}),
    ("bifurcation", "bifurcate --theta 0.8 --lambda-lo -0.3 --lambda-hi 0.25 --step 0.05"
     " --grid-n 64",
     {"theta": 0.8, "lambda_lo": -0.3, "lambda_hi": 0.25, "step": 0.05, "grid_n": 64}),
    ("hysteresis", "hysteresis --theta 0.8 --lambda-lo -0.3 --lambda-hi 0.25 --step 0.05"
     " --relax-t 5 --relax-dt 0.02 --jump-tol 0.3",
     {"theta": 0.8, "lambda_lo": -0.3, "lambda_hi": 0.25, "step": 0.05, "relax_t": 5,
      "relax_dt": 0.02, "jump_tol": 0.3}),
    ("netgrowth", "netgrowth --nodes 80 --m 2 --seeds 3,2 --mode degree_pa --boost 1.5 --tau 0.8"
     " --replicates 2 --seed 11",
     {"n_nodes": 80, "m": 2, "seed_agi": 3, "seed_dci": 2, "mode": "degree_pa",
      "dci_boost": 1.5, "tau": 0.8}),
    ("abm", "abm --n 20 --game 1,0.5,0.2,1 --rounds 4 --topology file:{edges} --update fermi:2"
     " --noise 0.05 --sc 0.2 --sd 0.8 --x0 0.6 --replicates 2 --seed 11",
     {**_POPULATION_DOC, "topology": {"kind": "imported", "path": "{edges}"}, "x0": 0.6}),
    ("basin", "basin --n 20 --game 1,0.5,0.2,1 --rounds 4 --topology ring:4 --update fermi:2"
     " --noise 0.05 --sc 0.2 --sd 0.8 --x0-list 0.3,0.6 --replicates 2 --seed 11",
     {**_POPULATION_DOC, "topology": {"kind": "ring_lattice", "k": 4}, "x0_list": [0.3, 0.6]}),
]


def test_flag_lines_cover_every_params_key():
    covered = {}
    for kind, _, params in _FLAG_LINES:
        covered.setdefault(kind, set()).update(params)
    assert covered == {kind: set(spec.schema) for kind, spec in KINDS.items()}


@pytest.mark.parametrize("kind, line, params", _FLAG_LINES,
                         ids=[line.split()[0] for _, line, _ in _FLAG_LINES])
def test_flag_and_file_configs_agree(tmp_path, kind, line, params):
    edges = tmp_path / "ring.edges"
    edges.write_text(_EDGES)
    params = json.loads(json.dumps(params).replace("{edges}", str(edges)))
    for key, value in params.items():
        assert value != KINDS[kind].schema[key][1], f"{key} is set to its default"
    argv = line.replace("{edges}", str(edges)).split()
    out_flags = str(tmp_path / "flags")
    assert main([*argv, "--out", out_flags, "--quiet"]) == 0

    replicates = int(argv[argv.index("--replicates") + 1]) if "--replicates" in argv else 1
    seed = int(argv[argv.index("--seed") + 1]) if "--seed" in argv else 0
    config = {"kind": kind, "master_seed": seed, "replicates": replicates,
              "output_dir": str(tmp_path / "file"), "params": params}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(config))
    assert main(["run", "--config", str(path), "--quiet"]) == 0
    assert dir_bytes(out_flags) == dir_bytes(config["output_dir"])
    echoes = [json.loads((tmp_path / out / "manifest.json").read_text())["config"]
              for out in ("flags", "file")]
    assert echoes[0]["params"] == echoes[1]["params"]


def test_seeds_flag_is_optional_like_the_seed_keys(tmp_path):
    out_flags = str(tmp_path / "flags")
    assert main(["netgrowth", "--nodes", "50", "--replicates", "2", "--out", out_flags,
                 "--quiet"]) == 0
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"kind": "netgrowth", "master_seed": 0, "replicates": 2,
                                "output_dir": str(tmp_path / "file"),
                                "params": {"n_nodes": 50}}))
    assert main(["run", "--config", str(path), "--quiet"]) == 0
    assert dir_bytes(out_flags) == dir_bytes(str(tmp_path / "file"))


def test_mistyped_flag_value_names_its_params_key(tmp_path, capsys):
    out = tmp_path / "ng"
    assert main(["netgrowth", "--nodes", "abc", "--out", str(out), "--quiet"]) == 1
    assert "'n_nodes' must be an integer" in capsys.readouterr().err
    assert not out.exists()


def test_missing_required_flag_is_usage_error(tmp_path, capsys):
    out = tmp_path / "bif"
    assert main(["bifurcate", "--lambda-lo", "-0.2", "--lambda-hi", "0.2", "--step", "0.1",
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "usage" in err and "--theta" in err
    assert not out.exists()


def test_a_new_schema_key_gets_a_flag(monkeypatch):
    spec = KINDS["netgrowth"]
    monkeypatch.setitem(KINDS, "netgrowth", replace(
        spec, schema={**spec.schema, "new_rate": (spec.schema["tau"][0], REQUIRED)}))
    args = build_parser().parse_args(["netgrowth", "--nodes", "5", "--new-rate", "0.5"])
    assert (args.n_nodes, args.new_rate) == (5, 0.5)
    with pytest.raises(SystemExit):
        build_parser().parse_args(["netgrowth", "--nodes", "5"])


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


def _netgrowth_run(out):
    assert main(["netgrowth", "--seeds", "2,1", "--nodes", "100", "--replicates", "2",
                 "--seed", "1", "--out", str(out), "--quiet"]) == 0


def test_report_rejects_a_changed_data_file(tmp_path, capsys):
    out = tmp_path / "run"
    _netgrowth_run(out)
    path = out / "shares_0000.csv"
    data = bytearray(path.read_bytes())
    data[-2] ^= 1  # one byte of the last share
    path.write_bytes(bytes(data))
    capsys.readouterr()
    assert main(["report", str(out)]) == 1
    captured = capsys.readouterr()
    assert "shares_0000.csv" in captured.err and "digest" in captured.err
    assert captured.out == ""


def test_report_hashes_a_long_trace_in_blocks(tmp_path, capsys):
    # a 1M-row trace is about 26 MB; report holds a block of it at a time
    out = tmp_path / "run"
    assert main(["netgrowth", "--seeds", "2,1", "--nodes", "1000000", "--seed", "1",
                 "--out", str(out), "--quiet"]) == 0
    path = out / "shares_0000.csv"
    assert path.stat().st_size > 20_000_000
    tracemalloc.start()
    try:
        _verified_manifest(str(out))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000, peak
    # a byte past the first blocks still fails the digest
    with open(path, "r+b") as fh:
        fh.seek(-2, os.SEEK_END)
        last = fh.read(1)
        fh.seek(-2, os.SEEK_END)
        fh.write(bytes([last[0] ^ 1]))
    capsys.readouterr()
    assert main(["report", str(out)]) == 1
    assert "shares_0000.csv does not match its digest" in capsys.readouterr().err


def test_report_rejects_a_missing_listed_file(tmp_path, capsys):
    out = tmp_path / "run"
    _netgrowth_run(out)
    (out / "shares_0001.csv").unlink()
    capsys.readouterr()
    assert main(["report", str(out)]) == 1
    captured = capsys.readouterr()
    assert "shares_0001.csv" in captured.err and "missing" in captured.err
    assert captured.out == ""


def test_report_rejects_a_run_without_manifest(tmp_path, capsys):
    out = tmp_path / "run"
    _netgrowth_run(out)
    (out / "manifest.json").unlink()
    assert main(["report", str(out)]) == 1
    assert "manifest" in capsys.readouterr().err


def test_report_rejects_a_manifest_that_lists_itself(tmp_path, capsys):
    out = tmp_path / "run"
    _netgrowth_run(out)
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["files"]["manifest.json"] = manifest["files"]["summary.csv"]
    (out / "manifest.json").write_text(json.dumps(manifest))
    capsys.readouterr()
    assert main(["report", str(out)]) == 1
    captured = capsys.readouterr()
    assert "lists 'manifest.json'" in captured.err and "not a file of the run" in captured.err
    assert captured.out == ""


def test_report_rejects_diagnostics_that_are_not_counts(tmp_path, capsys):
    out = tmp_path / "run"
    _netgrowth_run(out)
    manifest = json.loads((out / "manifest.json").read_text())
    for bad in ([1], {"non_equilibrated": "3"}, {"non_equilibrated": 1.5}):
        manifest["diagnostics"] = bad
        (out / "manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["report", str(out)]) == 1
        captured = capsys.readouterr()
        assert "'diagnostics' is not an object of integer counts" in captured.err
        assert captured.out == ""


def test_report_shows_non_equilibrated_points(tmp_path, capsys):
    # too short a relaxation budget: points near the folds never settle, and
    # each branch jumps twice, at 0.391 and 0.392, past its fold at 0.3849
    path = tmp_path / "hysteresis.json"
    path.write_text(json.dumps({
        "kind": "hysteresis", "master_seed": 0, "replicates": 1,
        "params": {"theta": 1, "lambda_lo": -0.6, "lambda_hi": 0.6, "step": 1e-3, "relax_t": 0.05},
    }))
    out = str(tmp_path / "h")
    assert main(["run", "--config", str(path), "--out", out, "--quiet"]) == 0
    capsys.readouterr()
    assert main(["report", out]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split()[:2] == ["metric", "mean"]
    assert lines[-2:] == ["diagnostic misplaced_jumps = 4", "diagnostic non_equilibrated = 416"]


def test_report_omits_zero_diagnostics(tmp_path, capsys):
    out = str(tmp_path / "h")
    assert main(["hysteresis", *_SWEEP_ARGS, "--out", out, "--quiet"]) == 0
    assert main(["report", out]) == 0
    assert "diagnostic" not in capsys.readouterr().out


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
    # a malformed line, an id past int64, an out-of-range node id, a self-loop, a duplicate
    # edge and an isolated node all exit 1 before any run, naming the line, node or edge
    cases = {"syntax": ("0 1\n1 2\n2 x\n3 0\n", "line 3"),
             "int64": ("0 1\n1 2\n2 99999999999999999999\n3 0\n",
                       "edge list line 3: node id outside int64 in '2 99999999999999999999'"),
             "range": ("0 1\n1 2\n2 7\n3 0\n", "node 7"),
             "loop": ("0 1\n1 2\n2 3\n3 0\n3 3\n", "self-loop at node 3"),
             "duplicate": ("0 1\n1 2\n2 3\n3 0\n2 1\n", "duplicate edge (1, 2)"),
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
    assert diagnostics == {"non_equilibrated": 74, "misplaced_jumps": 4}
    assert err.count("warning") == 2
    assert "non_equilibrated = 74" in err
    assert "misplaced_jumps = 4" in err


def test_hysteresis_default_relaxation_has_no_warning(tmp_path, capsys):
    diagnostics, err = _hysteresis_run(tmp_path, capsys)
    assert diagnostics == {"non_equilibrated": 0, "misplaced_jumps": 0}
    assert "warning" not in err


_SWEEP_ARGS = ["--theta", "1", "--lambda-lo", "-0.2", "--lambda-hi", "0.2", "--step", "0.1"]
_POPULATION_ARGS = ["--n", "20", "--game", "1,0,0,1", "--rounds", "2"]


@pytest.mark.parametrize("argv, named", [
    (["bifurcate", *_SWEEP_ARGS, "--step", "0"], "step"),
    (["bifurcate", *_SWEEP_ARGS, "--lambda-hi", "-0.2"], "lambda_lo"),
    (["bifurcate", *_SWEEP_ARGS, "--grid-n", "1"], "grid_n"),
    (["bifurcate", *_SWEEP_ARGS, "--grid-n", "99999999999999999999"],
     "grid_n=99999999999999999999 asks for 1e+20 root-scan intervals, above the limit of 1,048,576"),
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


@pytest.mark.parametrize("argv, named", [
    (["bifurcate", *_SWEEP_ARGS, "--step", "5e-324"], "step=5e-324 asks for inf sweep points"),
    (["hysteresis", *_SWEEP_ARGS, "--step", "1e-300"], "step=1e-300 asks for 4e+299 sweep points"),
    (["replicator", "--pc", "2", "--pd", "1", "--x0", "0.1", "--t-end", "1e300"],
     "t_end=1e+300 at dt=0.001 asks for 1e+303 RK4 steps"),
    ({"kind": "bifurcation",
      "params": {"theta": 1, "lambda_lo": -0.6, "lambda_hi": 0.6, "step": 1e-300}},
     "step=1e-300 asks for 1.2e+300 sweep points"),
    ({"kind": "replicator", "params": {"x0": 0.1, "t_end": 1e300, "p_c": 2, "p_d": 1}},
     "t_end=1e+300 at dt=0.001 asks for 1e+303 RK4 steps"),
    (["hysteresis", *_SWEEP_ARGS, "--relax-dt", "1e-300"],
     "invalid hysteresis params: relax_t=50.0 at relax_dt=1e-300 asks for 5e+303 relaxation steps"
     " per sweep point, above the limit of 10,000,000"),
    (["hysteresis", *_SWEEP_ARGS, "--relax-t", "1e300"],
     "relax_t=1e+300 at relax_dt=0.01 asks for 1e+304 relaxation steps per sweep point"),
    ({"kind": "hysteresis", "params": {"theta": 1, "lambda_lo": -0.2, "lambda_hi": 0.2, "step": 0.1,
                                       "relax_dt": 1e-300}},
     "relax_t=50.0 at relax_dt=1e-300 asks for 5e+303 relaxation steps per sweep point"),
    ({"kind": "hysteresis", "params": {"theta": 1, "lambda_lo": -0.2, "lambda_hi": 0.2, "step": 0.1,
                                       "relax_t": 1e300}},
     "relax_t=1e+300 at relax_dt=0.01 asks for 1e+304 relaxation steps per sweep point"),
    (["netgrowth", "--nodes", "10000001", "--replicates", "2"],
     "invalid netgrowth params: n_nodes=10,000,001 is above the limit of 10,000,000 arrivals"),
    ({"kind": "netgrowth", "params": {"n_nodes": 10 ** 12}},
     "n_nodes=1,000,000,000,000 is above the limit of 10,000,000 arrivals"),
    (["netgrowth", "--nodes", "10", "--seeds", "99999999999999999999,1"],
     "invalid netgrowth params: seed_agi=99,999,999,999,999,999,999 is above the limit of 10,000,000 seed nodes"),
    (["netgrowth", "--nodes", "10", "--seeds", "9007199254740993,9007199254740992", "--replicates", "40"],
     "seed_agi=9,007,199,254,740,993 is above the limit of 10,000,000 seed nodes"),
    (["netgrowth", "--nodes", "10", "--seeds", "1,10000001"],
     "seed_dci=10,000,001 is above the limit of 10,000,000 seed nodes"),
    ({"kind": "netgrowth", "params": {"n_nodes": 10, "m": 10000001, "mode": "degree_pa"}},
     "m=10,000,001 is above the limit of 10,000,000 edges per arrival"),
    (["netgrowth", "--nodes", "10", "--replicates", "2000000"],
     "replicates=2,000,000 asks for 2,000,000 seed streams, above the limit of 1,000,000"),
    (["abm", "--n", "10000001", "--x0", "0.5", "--game", "1,0,0,1", "--rounds", "1"],
     "invalid abm params: n=10,000,001 is above the limit of 10,000,000 agents"),
    (["basin", "--n", "10000", "--x0-list", "0.2,0.8", "--game", "1,0,0,1", "--rounds", "10001",
      "--topology", "ring:4"],
     "invalid basin params: n=10,000 x rounds=10,001 asks for 100,010,000 agent-rounds, "
     "above the limit of 100,000,000"),
    # the size is refused before the graph file is looked for
    ({"kind": "abm", "params": {"n": 10 ** 12, "x0": 0.5, "rounds": 1, "game": {"r": 1, "sg": 0, "t": 0, "pu": 1},
                                "topology": {"kind": "imported", "path": "missing.edges"}}},
     "n=1,000,000,000,000 is above the limit of 10,000,000 agents"),
    (["abm", "--n", "2", "--x0", "0.5", "--game", "1,0,0,1", "--rounds", "1000001"],
     "invalid abm params: rounds=1,000,001 is above the limit of 1,000,000 rounds"),
    ({"kind": "basin", "params": {"n": 2, "x0_list": [0.5], "rounds": 1000001,
                                  "game": {"r": 1, "sg": 0, "t": 0, "pu": 1}}},
     "invalid basin params: rounds=1,000,001 is above the limit of 1,000,000 rounds"),
], ids=lambda value: "-".join(value) if isinstance(value, list) else None)
def test_oversized_work_exits_one_before_any_is_done(tmp_path, capsys, monkeypatch, argv, named):
    # the loader rejects the size, naming its key; no grid is built, nothing
    # is integrated, relaxed, grown or simulated and no output directory is made
    from attractorlab import abm, dynamics, netgrowth

    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(abm, "run", no_work)
    monkeypatch.setattr(abm, "_Buffers", no_work)
    monkeypatch.setattr(dynamics, "_param_grid", no_work)
    monkeypatch.setattr(dynamics, "integrate", no_work)
    monkeypatch.setattr(dynamics, "_relax", no_work)
    monkeypatch.setattr(netgrowth, "_step", no_work)
    monkeypatch.setattr(netgrowth, "grow", no_work)
    if isinstance(argv, dict):  # a config file
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"master_seed": 0, "replicates": 1, **argv}))
        argv = ["run", "--config", str(path)]
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out), "--quiet"]) == 1
    assert named in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("digits", [400, 5000])
def test_integer_past_the_float_range_exits_one_and_writes_nothing(tmp_path, capsys, digits):
    # 400 digits overflow a float; 5000 are past Python's integer parse limit
    path = tmp_path / "config.json"
    path.write_text('{"kind": "replicator", "master_seed": 0, "replicates": 1, '
                    '"params": {"x0": 0.1, "t_end": 1, "p_c": 1%s, "p_d": 1}}' % ("0" * digits))
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert ("field 'p_c' is too large for a float" if digits == 400 else "config parse error") in err
    assert not out.exists()


def test_repeated_x0_exits_one_and_writes_nothing(tmp_path, capsys):
    # summary and metrics are keyed by x0, so a repeat would silently merge
    # two cells; the config is rejected before any replicate runs
    out = tmp_path / "b"
    assert main(["basin", "--n", "50", "--x0-list", "0.5,0.5", "--game", "1,0,0,1",
                 "--rounds", "3", "--replicates", "4", "--out", str(out), "--quiet"]) == 1
    assert "x0=0.5 is repeated" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("x0_list", ["0.2,,0.6", "0.2,0.6,", ",0.2", ""])
def test_empty_x0_list_item_is_usage_error(tmp_path, capsys, x0_list):
    # a stray comma is a typo a file run cannot spell; it is not skipped
    out = tmp_path / "b"
    assert main(["basin", "--n", "50", "--x0-list", x0_list, "--game", "1,0,0,1",
                 "--rounds", "3", "--out", str(out), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert "usage" in err and f"--x0-list: expects numbers, got {x0_list!r}" in err
    assert not out.exists()

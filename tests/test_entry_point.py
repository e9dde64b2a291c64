"""The exit-code contract through a real ``python -m attractorlab`` process:
0 for a run and its report, 1 for a bad config, 2 for a runtime failure,
which leaves the output directory as it found it."""

import json
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")


def attractorlab(cwd, *args):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}
    env.pop("ATTRACTORLAB_SEED", None)
    return subprocess.run([sys.executable, "-m", "attractorlab", *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def test_run_and_report_exit_zero(tmp_path):
    assert attractorlab(tmp_path, "--help").returncode == 0
    done = attractorlab(tmp_path, "netgrowth", "--seeds", "2,1", "--nodes", "50",
                        "--replicates", "2", "--out", "out", "--quiet")
    assert done.returncode == 0, done.stderr
    assert sorted(os.listdir(tmp_path / "out")) == [
        "manifest.json", "shares_0000.csv", "shares_0001.csv", "summary.csv"]
    done = attractorlab(tmp_path, "report", "out")
    assert done.returncode == 0, done.stderr
    assert "final_agi_share" in done.stdout


def test_bad_config_exits_one(tmp_path):
    (tmp_path / "bad.json").write_text(json.dumps(
        {"kind": "netgrowth", "master_seed": 1, "replicates": 0, "params": {"n_nodes": 10}}))
    done = attractorlab(tmp_path, "run", "--config", "bad.json", "--out", "out")
    assert done.returncode == 1
    assert "replicates" in done.stderr
    assert not (tmp_path / "out").exists()


def test_write_failure_exits_two_and_leaves_only_what_was_there(tmp_path):
    out = tmp_path / "out"
    (out / "shares_0001.csv").mkdir(parents=True)  # a directory where a trace file goes
    (out / "notes.txt").write_text("mine\n")
    before = sorted(os.listdir(out))
    done = attractorlab(tmp_path, "netgrowth", "--seeds", "2,1", "--nodes", "50",
                        "--replicates", "3", "--out", "out", "--quiet")
    assert done.returncode == 2, done.stderr
    assert "shares_0001.csv" in done.stderr
    assert sorted(os.listdir(out)) == before
    assert (out / "notes.txt").read_text() == "mine\n"

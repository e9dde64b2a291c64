"""The exit-code contract through a real ``python -m attractorlab`` process:
0 for a run and its report, 1 for a bad config, 2 for a runtime failure,
which leaves the output directory as it found it.  Also how that process
ends through ``cli.entry``: which modules it executed, its output flushed
whole, its workers joined."""

import json
import os
import platform
import subprocess
import sys

import pytest

from attractorlab.cli import main

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")


def child_env() -> dict:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}
    env.pop("ATTRACTORLAB_SEED", None)
    # stdout block-buffered into a pipe, as Python sets it up by default, so
    # what the process prints reaches the reader only when it is flushed
    env.pop("PYTHONUNBUFFERED", None)
    return env


def python(cwd, *args):
    return subprocess.run([sys.executable, *args], cwd=cwd, env=child_env(),
                          capture_output=True, text=True, timeout=120)


def attractorlab(cwd, *args):
    return python(cwd, "-m", "attractorlab", *args)


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


# os._exit ends the process before any code after the entry could run, so the
# script wraps it: just before the CLI process ends, it prints one JSON line with
# the exit code, the attractorlab modules that were executed (a module bound
# lazily whose code never ran is still a _LazyModule), whether a child
# process is left unjoined, and which of OpenSSL's hashlib backend, numpy,
# numpy.random (which imports hashlib) and orjson were loaded.  A forked
# worker also ends through os._exit and prints nothing.
_AT_EXIT = """
import json, os, runpy, sys, types
parent, real_exit = os.getpid(), os._exit

def at_exit(code):
    if os.getpid() == parent:
        try:
            os.waitpid(-1, os.WNOHANG)
            children = True
        except ChildProcessError:
            children = False
        executed = sorted(name for name, module in sys.modules.items()
                          if name.startswith("attractorlab") and type(module) is types.ModuleType)
        loaded = [name for name in ("_hashlib", "numpy", "numpy.random", "orjson") if name in sys.modules]
        print(json.dumps({"code": code, "executed": executed, "children": children, "loaded": loaded}))
        sys.stdout.flush()
    real_exit(code)

os._exit = at_exit
sys.argv = ["attractorlab", *sys.argv[1:]]
runpy.run_module("attractorlab", run_name="__main__")
"""


def attractorlab_at_exit(cwd, *args) -> dict:
    """``python -m attractorlab *args`` through ``_AT_EXIT``: its last JSON line."""
    done = python(cwd, "-c", _AT_EXIT, *args)
    lines = done.stdout.splitlines()
    assert done.returncode == 0 and lines, done.stderr
    return json.loads(lines[-1])


def test_a_run_does_not_import_cogmodel(tmp_path):
    # the package imports cogmodel only on use, and no scenario kind uses it;
    # a netgrowth run runs neither of the other kinds' model modules
    at_exit = attractorlab_at_exit(tmp_path, "netgrowth", "--seeds", "2,1", "--nodes", "50",
                                   "--replicates", "2", "--out", "out", "--quiet")
    assert at_exit["code"] == 0
    modules = at_exit["executed"]
    assert {"attractorlab.cli", "attractorlab.harness", "attractorlab.netgrowth"} <= set(modules)
    assert "attractorlab.cogmodel" not in modules
    assert not {"attractorlab.abm", "attractorlab.dynamics"} & set(modules)
    assert (tmp_path / "out" / "manifest.json").exists()


MODELS = {"attractorlab.abm", "attractorlab.cogmodel", "attractorlab.dynamics", "attractorlab.netgrowth"}


_SWEEP = ("--theta", "1", "--lambda-lo", "-0.2", "--lambda-hi", "0.2", "--step", "0.1", "--out", "out", "--quiet")
_HYSTERESIS = ("hysteresis", *_SWEEP)


_ARRAYS = ["numpy", "orjson"]
_RANDOM = ["_hashlib", "numpy", "numpy.random", "orjson"]
_POPULATION = ("--n", "20", "--game", "1,0,0,1", "--rounds", "2", "--replicates", "2", "--out", "out", "--quiet")
# scenario files the `run` rows read, written into each test's directory
_FILES = {
    "hysteresis.json": {"kind": "hysteresis", "master_seed": 0, "replicates": 1, "output_dir": "out",
                        "params": {"theta": 1, "lambda_lo": -0.2, "lambda_hi": 0.2, "step": 0.1}},
    "ring.json": {"kind": "abm", "master_seed": 0, "replicates": 2, "output_dir": "out",
                  "params": {"n": 20, "x0": 0.5, "game": {"r": 1, "sg": 0, "t": 0, "pu": 1}, "rounds": 2,
                             "topology": {"kind": "ring_lattice", "k": 4}}},
}


@pytest.mark.parametrize("before, args, models, loaded", [
    ((), _HYSTERESIS, {"attractorlab.dynamics"}, []),
    ((), ("bifurcate", *_SWEEP), {"attractorlab.dynamics"}, []),
    ((), ("replicator", "--x0", "0.3", "--t-end", "1", "--pc", "2", "--pd", "1", "--out", "out", "--quiet"),
     {"attractorlab.dynamics"}, _ARRAYS),
    (_HYSTERESIS, ("report", "out"), set(), []),
    ((), ("--help",), set(), []),
    ((), ("netgrowth", "--seeds", "2,1", "--nodes", "50", "--replicates", "2", "--out", "out", "--quiet"),
     {"attractorlab.netgrowth"}, ["_hashlib", "numpy", "numpy.random", "orjson"]),
    ((), ("run", "--config", "hysteresis.json", "--quiet"), {"attractorlab.dynamics"}, []),
    ((), ("run", "--config", "ring.json", "--quiet"), {"attractorlab.abm"}, _RANDOM),
    ((), ("abm", "--x0", "0.5", *_POPULATION), {"attractorlab.abm"}, _RANDOM),
    ((), ("basin", "--x0-list", "0.3,0.7", *_POPULATION), {"attractorlab.abm"}, _RANDOM),
], ids=["hysteresis", "bifurcate", "replicator", "report", "help", "netgrowth",
        "run-hysteresis", "run-abm-ring", "abm", "basin"])
def test_a_call_executes_only_the_models_it_uses(tmp_path, before, args, models, loaded):
    # a call that hashes less than a MiB loads neither OpenSSL nor numpy.random unless
    # its model draws random numbers, and a sweep, a hysteresis loop and their report
    # run in Python floats and load neither numpy nor orjson; the manifest's env lists
    # the array libraries' versions exactly where they were loaded
    for name, doc in _FILES.items():
        (tmp_path / name).write_text(json.dumps(doc))
    if before:
        assert attractorlab(tmp_path, *before).returncode == 0
    at_exit = attractorlab_at_exit(tmp_path, *args)
    assert at_exit["code"] == 0
    assert MODELS & set(at_exit["executed"]) == models
    assert at_exit["loaded"] == loaded
    if args[0] not in ("report", "--help"):
        env = json.loads((tmp_path / "out" / "manifest.json").read_text())["env"]
        assert sorted(_ARRAYS & env.keys()) == [name for name in loaded if name in _ARRAYS]


def test_a_two_worker_run_joins_its_pool_before_the_process_ends(tmp_path):
    at_exit = attractorlab_at_exit(tmp_path, "netgrowth", "--seeds", "2,1", "--nodes", "50",
                                   "--replicates", "4", "--jobs", "2", "--out", "out", "--quiet")
    assert (at_exit["code"], at_exit["children"]) == (0, False)
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["env"]["jobs"] == min(2, os.cpu_count())
    assert sorted(manifest["files"]) == [f"shares_{i:04d}.csv" for i in range(4)] + ["summary.csv"]
    assert sorted(os.listdir(tmp_path / "out")) == sorted([*manifest["files"], "manifest.json"])
    assert attractorlab(tmp_path, "report", "out").returncode == 0


# the CLI under a 1 GiB address-space cap, so a run that sizes memory by a huge
# number fails fast with MemoryError instead of taking the machine's memory
_CAPPED = """
import resource, runpy, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
sys.argv = ["attractorlab", *sys.argv[1:]]
runpy.run_module("attractorlab", run_name="__main__")
"""


@pytest.mark.parametrize("k, args", [
    (20_000_000, ["abm", "--n", "100", "--x0", "0.5", "--game", "1,0,0,1", "--rounds", "1",
                  "--topology", "ring:20000000", "--out", "out", "--quiet"]),
    (2 ** 62, ["run", "--config", "ring.json", "--quiet"]),
], ids=["flag", "file"])
def test_a_ring_degree_is_checked_against_n_before_the_ring_is_built(tmp_path, k, args):
    # a ring's offsets are a list of k entries: k >= n is refused at load,
    # before they are built
    (tmp_path / "ring.json").write_text(json.dumps({
        "kind": "abm", "master_seed": 0, "replicates": 1, "output_dir": "out",
        "params": {"n": 100, "x0": 0.5, "game": {"r": 1, "sg": 0, "t": 0, "pu": 1}, "rounds": 1,
                   "topology": {"kind": "ring_lattice", "k": k}}}))
    done = subprocess.run([sys.executable, "-c", _CAPPED, *args], cwd=tmp_path, env=child_env(),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 1, done.stderr
    assert f"ring lattice degree k={k} must be < n=100" in done.stderr
    assert not (tmp_path / "out").exists()


def basin_run(cwd, x0_count: int) -> str:
    """A basin run whose summary has three rows per initial fraction."""
    x0_list = ",".join(str(i / x0_count) for i in range(1, x0_count))
    done = attractorlab(cwd, "basin", "--n", "10", "--x0-list", x0_list, "--game", "1,0,0,1",
                        "--rounds", "1", "--out", "out", "--quiet")
    assert done.returncode == 0, done.stderr
    return "out"


def test_report_output_arrives_whole_through_a_pipe(tmp_path, capsys):
    # more than a pipe holds, so the process writes while the reader reads
    run_dir = basin_run(tmp_path, 1000)
    done = attractorlab(tmp_path, "report", run_dir)
    assert done.returncode == 0, done.stderr
    assert len(done.stdout) > 1 << 16
    assert main(["report", str(tmp_path / run_dir)]) == 0
    assert done.stdout == capsys.readouterr().out


@pytest.mark.parametrize("x0_count", [2, 1000])
def test_a_closed_stdout_prints_no_traceback(tmp_path, x0_count):
    # a short report fails when the entry flushes it, a long one inside main,
    # once it is past the buffer
    run_dir = basin_run(tmp_path, x0_count)
    proc = subprocess.Popen([sys.executable, "-m", "attractorlab", "report", run_dir], cwd=tmp_path,
                            env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    proc.stdout.close()  # the reader is gone before anything is written
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 2
    assert err == "attractorlab: BrokenPipeError: [Errno 32] Broken pipe\n"


_ENV_STARTS_NO_PROCESS = """
import json, subprocess

def refuse(*args, **kwargs):
    raise AssertionError(f"started a process: {args}")

subprocess.Popen = refuse
from attractorlab import harness
print(json.dumps(harness._env(1)))
"""


def test_the_environment_is_read_without_starting_a_process(tmp_path):
    # platform.platform() forks uname -p for the processor name; a fresh
    # interpreter, since platform caches what it read
    done = python(tmp_path, "-c", _ENV_STARTS_NO_PROCESS)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["platform"] == platform.platform()


_OPENBLAS_THREADS = "import os; {}import attractorlab; print(os.environ.get('OPENBLAS_NUM_THREADS'))"


def test_import_asks_openblas_for_one_thread_unless_set(tmp_path, monkeypatch):
    # numpy's OpenBLAS reads the variable when numpy loads: attractorlab sets
    # it first, keeps a value the user set, and leaves it alone once numpy is in
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    assert python(tmp_path, "-c", _OPENBLAS_THREADS.format("")).stdout.split() == ["1"]
    assert python(tmp_path, "-c", _OPENBLAS_THREADS.format("import numpy; ")).stdout.split() == ["None"]
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    assert python(tmp_path, "-c", _OPENBLAS_THREADS.format("")).stdout.split() == ["3"]

"""Smoke runs of the experiment scripts with tiny arguments: each exits 0
and every file it reports writing exists."""

import os
import subprocess
import sys

import pytest

SCRIPTS = os.path.join(os.path.dirname(__file__), "..", "scripts")


@pytest.mark.parametrize("script, args", [
    ("basin_map.py", ["--n", "20", "--rounds", "2", "--replicates", "1", "--out", "{out}"]),
    ("hysteresis_experiment.py", ["--step", "0.2", "--out", "{out}"]),
    ("lockin_experiment.py", ["--nodes", "50", "--replicates", "5"]),
])
def test_script_runs_and_its_files_exist(tmp_path, script, args):
    out = str(tmp_path / "out")
    argv = [sys.executable, os.path.join(SCRIPTS, script), *(a.format(out=out) for a in args)]
    done = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    reported = [line.split("wrote ", 1)[1] for line in done.stdout.splitlines() if "wrote " in line]
    for path in reported:
        assert os.path.isfile(path), path
    if "--out" in args:
        assert reported


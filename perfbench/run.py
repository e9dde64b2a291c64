"""attractorlab benchmark: one workload per invocation.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere; the program is taken from ``src/`` next to this
directory.  With ``--trace 0`` it times fresh ``attractorlab`` processes
(fresh interpreters running the library calls for ``lockin_lib``) in passes
over the workload's calls until ``--seconds`` have elapsed, and reports the
end-to-end metrics as medians over passes, scaled by a host probe to a
host of fixed speed (see ``measure``).  With ``--trace 1`` it runs one
timed pass, then the same calls in one untraced and one traced fresh
process, and reports the per-layer metrics.

Every call writes into a fresh directory that is deleted afterwards.  Each
call's outputs are checked: the manifest must list exactly the files on
disk with matching digests, every pass must produce the same data bytes,
the traced run must reproduce the timed run's bytes, and at the default
seed the bytes must match digests pinned in ``golden.json``.

Human-readable lines go to stdout first; the last stdout line is one JSON
object with keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 0 only when every operation succeeded and every check
passed.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_BASE = os.path.join(ROOT, ".perfbench_work")

# setup runs are spread over the run so one noisy moment cannot set the median
SETUPS_PER_PASS = 2
MIN_SETUPS = 8
# Host probe: back-to-back chunks of fixed interpreter work for PROBE_S.
# A chunk takes about PROBE_REF_S on a 2-vCPU x86-64 VM under Python 3.11;
# every measured time is scaled to a host where it takes exactly that.
PROBE_CHUNK = 20_000
PROBE_S = 0.2
PROBE_REF_S = 0.01
CALL_TIMEOUT_S = 150

# name, unit; throughput counts the workload's work unit per reference second
END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("throughput", "1/s"),
    ("peak_rss_mb", "MB"),
)


class BenchFailure(RuntimeError):
    """An operation exited non-zero or its outputs failed a check."""


@dataclass
class Proc:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: str


def _env() -> dict:
    env = dict(os.environ)
    env.pop("ATTRACTORLAB_SEED", None)
    env["PYTHONPATH"] = SRC
    return env


def spawn(argv: list[str], log_dir: str) -> Proc:
    """Run argv to completion; wall time plus CPU and peak RSS of the process
    and every descendant it reaped, from the kernel's rusage for that child."""
    out_path = os.path.join(log_dir, "stdout.txt")
    err_path = os.path.join(log_dir, "stderr.txt")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=_env(), stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err, start_new_session=True)
        timer = threading.Timer(CALL_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8", errors="replace") as fh:
        stdout = fh.read()
    if proc.returncode != 0:
        with open(err_path, encoding="utf-8", errors="replace") as fh:
            tail = fh.read()[-2000:]
        raise BenchFailure(f"{' '.join(argv[:4])} ... exited {proc.returncode}: {tail}")
    return Proc(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, stdout)


def _last_json(text: str) -> dict:
    lines = text.strip().splitlines()
    if not lines:
        raise BenchFailure("child printed no result")
    return json.loads(lines[-1])


class Bench:
    def __init__(self, wl: workloads.Workload, work_dir: str):
        self.wl = wl
        self.work_dir = work_dir
        self.attempted = 0
        self.failed = 0
        self.reference: list[str] | None = None
        self._serial = 0
        golden_path = os.path.join(HERE, "golden.json")
        with open(golden_path, encoding="utf-8") as fh:
            golden = json.load(fh)
        self.pinned = None
        if wl.seed == golden["seed"] and wl.size == golden["size"]:
            self.pinned = golden["digests"][wl.name]

    def _child(self, mode: str, traced: int = 0) -> list[str]:
        return [sys.executable, os.path.join(HERE, "child.py"), mode,
                "--workload", self.wl.name, "--seed", str(self.wl.seed),
                "--size", self.wl.size, "--work", self.work_dir, "--trace", str(traced)]

    def _fresh_dir(self) -> str:
        self._serial += 1
        path = os.path.join(self.work_dir, f"call-{self._serial}")
        os.mkdir(path)
        return path

    def operation(self, fn):
        """Count one attempted operation; a failure is counted and re-raised."""
        self.attempted += 1
        try:
            return fn()
        except (BenchFailure, workloads.CheckError, ValueError, KeyError) as exc:
            self.failed += 1
            raise BenchFailure(str(exc)) from exc

    def check_digests(self, digests: list[str], what: str) -> None:
        """Compare a run's data digests with the pinned ones and the first run's;
        a mismatch fails the run's last operation."""
        problem = None
        if self.pinned is not None and digests != self.pinned:
            problem = f"{what}: data bytes differ from the pinned digests"
        elif self.reference is None:
            self.reference = digests
        elif digests != self.reference:
            problem = f"{what}: data bytes differ from the first run's"
        if problem is not None:
            self.failed += 1
            raise BenchFailure(problem)

    def setup_once(self) -> float:
        log = self._fresh_dir()
        proc = self.operation(lambda: spawn(self._child("setup"), log))
        shutil.rmtree(log)
        return proc.wall_s

    def call(self, call: workloads.Call) -> tuple[Proc, str]:
        """One timed call in a fresh process; returns it and its data digest."""
        out_dir = self._fresh_dir()

        def go():
            if call.argv is None:
                proc = spawn(self._child("run"), out_dir)
                return proc, _last_json(proc.stdout)["digests"][0]
            argv = [sys.executable, "-m", "attractorlab", *call.argv, "--out", out_dir]
            proc = spawn(argv, self.work_dir)
            return proc, workloads.check_outputs(out_dir)

        try:
            return self.operation(go)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)

    def timed_pass(self, scale_after=lambda: 1.0) -> tuple[dict, dict]:
        """Run every call once.  ``scale_after`` runs after each call and
        returns the factor that call's times are scaled by; returns the
        pass's raw and scaled metrics."""
        procs, scales, digests = [], [], []
        for call in self.wl.calls:
            proc, digest = self.call(call)
            scales.append(scale_after())
            procs.append(proc)
            digests.append(digest)
        self.check_digests(digests, "timed pass")
        work = sum(c.work for c in self.wl.calls)
        return pass_metrics(procs, [1.0] * len(procs), work), pass_metrics(procs, scales, work)

    def in_process(self, traced: int) -> dict:
        log = self._fresh_dir()
        try:
            result = self.operation(lambda: _last_json(spawn(self._child("run", traced), log).stdout))
        finally:
            shutil.rmtree(log, ignore_errors=True)
        what = "traced run" if traced else "untraced run"
        self.check_digests(result["digests"], what)
        return result


def pass_metrics(procs: list[Proc], scales: list[float], work: int) -> dict:
    """End-to-end metrics of one pass, each call's times multiplied by its scale."""
    wall = sum(p.wall_s * k for p, k in zip(procs, scales))
    return {
        "wall_s": wall,
        "cpu_s": sum(p.cpu_s * k for p, k in zip(procs, scales)),
        "throughput": work / wall,
        "peak_rss_mb": max(p.peak_rss_mb for p in procs),
    }


def host_probe() -> float:
    """Median seconds per chunk of fixed interpreter work (arithmetic, list
    and dict operations) over PROBE_S of back-to-back chunks: how fast the
    host runs this process at the moment."""
    times = []
    end = time.perf_counter() + PROBE_S
    while not times or time.perf_counter() < end:
        started = time.perf_counter()
        acc, table, items = 0, {}, []
        for i in range(PROBE_CHUNK):
            acc = (acc * 1103515245 + 12345) & 0x7FFFFFFF
            items.append(acc % 1009)
            table[acc & 1023] = i
        items.sort()
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def measure(bench: Bench, seconds: float, report: list[str]) -> tuple[dict, dict]:
    """End-to-end metrics as medians over timed passes, and their sample counts.

    The host's speed drifts both ways by a third within minutes, moving CPU
    time as much as wall time.  So a host probe runs before the first
    process and after every process, and each process's times are scaled by
    PROBE_REF_S over the mean of the two probes around it: the metrics read
    in seconds of a host on which a probe chunk takes PROBE_REF_S.
    """
    probes = [host_probe()]

    def probe_scale() -> float:
        probes.append(host_probe())
        return PROBE_REF_S / statistics.fmean(probes[-2:])

    raw_setups, setups, raw_passes, passes = [], [], [], []

    def setup() -> None:
        raw = bench.setup_once()
        raw_setups.append(raw)
        setups.append(raw * probe_scale())

    deadline = time.perf_counter() + seconds
    pass_s = 0.0
    # stop before a pass that would end past the deadline, so a run lasts
    # about --seconds whatever the host's speed
    while not passes or time.perf_counter() + pass_s < deadline:
        started = time.perf_counter()
        for _ in range(SETUPS_PER_PASS):
            setup()
        raw, scaled = bench.timed_pass(probe_scale)
        raw_passes.append(raw)
        passes.append(scaled)
        pass_s = time.perf_counter() - started
    while len(setups) < MIN_SETUPS:
        setup()
    metrics = {name: statistics.median(p[name] for p in passes) for name in passes[0]}
    metrics["setup_s"] = statistics.median(setups)
    report.append(f"passes={len(passes)} setup_repeats={len(setups)} "
                  f"work per pass={sum(c.work for c in bench.wl.calls)} {bench.wl.work_unit}")
    report.append("host probe s per chunk: " + " ".join(repr(v) for v in probes))
    for name in passes[0]:
        raw = [p[name] for p in raw_passes]
        report.append(f"raw {name} per pass: " + " ".join(repr(v) for v in raw))
        report.append(f"{name} per pass: " + " ".join(repr(p[name]) for p in passes))
        report.append(f"raw {name} median: {statistics.median(raw)!r}")
    report.append("raw setup_s per repeat: " + " ".join(repr(v) for v in raw_setups))
    report.append("setup_s per repeat: " + " ".join(repr(v) for v in setups))
    report.append(f"raw setup_s median: {statistics.median(raw_setups)!r}")
    samples = {name: len(passes) for name in metrics}
    samples["setup_s"] = len(setups)
    return metrics, samples


def trace_run(bench: Bench, report: list[str]) -> tuple[dict, dict]:
    """Per-layer metrics from one traced in-process run, checked against a
    timed pass and an untraced in-process run."""
    bench.timed_pass()
    plain = bench.in_process(0)
    traced = bench.in_process(1)
    metrics = dict(traced["layers"])
    metrics["cli.import_s"] = traced["import_s"]
    metrics["tracing.overhead_s"] = traced["run_s"] - plain["run_s"]
    report.append(f"in-process run_s untraced={plain['run_s']!r} traced={traced['run_s']!r}")
    report.extend(traced["report"])
    return metrics, {}


def _version(dist: str) -> str:
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return "missing"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="attractorlab benchmark")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    ap.add_argument("--size", default="full", choices=sorted(workloads.SIZES),
                    help="input size; tiny is for the benchmark's smoke tests")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "attractorlab", "__init__.py")):
        print(f"perfbench: no attractorlab sources under {SRC}", file=sys.stderr)
        return 2

    load_start = os.getloadavg()
    os.makedirs(WORK_BASE, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_BASE)
    wl = workloads.build(args.workload, args.seed, args.size, work_dir)
    report: list[str] = []
    error = None
    metrics: dict = {}
    samples: dict = {}
    bench = Bench(wl, work_dir)
    try:
        workloads.prepare(wl, work_dir)
        try:
            if args.trace:
                metrics, samples = trace_run(bench, report)
            else:
                metrics, samples = measure(bench, args.seconds, report)
        except BenchFailure as exc:
            error = str(exc)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(WORK_BASE)
        except OSError:
            pass

    print(f"# perfbench workload={wl.name} seed={wl.seed} size={wl.size} trace={args.trace}")
    print(f"# env python={platform.python_version()} numpy={_version('numpy')} "
          f"nproc={os.cpu_count()} loadavg_start={load_start[0]:.2f} "
          f"loadavg_end={os.getloadavg()[0]:.2f}")
    for line in report:
        print(f"# {line}")
    fail_rate = bench.failed / bench.attempted if bench.attempted else 1.0
    print(f"# fail_rate = {fail_rate!r} ratio ({bench.failed} of {bench.attempted} operations)")
    if error is not None:
        print(f"# FAILED: {error}")

    if args.trace:
        catalogue = [(name, unit) for name, unit, _, _ in tracing.LAYER_METRICS]
        moves = {name: target for name, _, _, target in tracing.LAYER_METRICS}
    else:
        catalogue = list(END_TO_END)
        moves = {}
    out = {}
    for name, unit in catalogue:
        if name in metrics:
            out[name] = {"value": metrics[name], "unit": unit}
            hint = f"  (median of n={samples[name]})" if name in samples else ""
            if name in moves:
                hint = f"  (moves {moves[name]})"
            print(f"# {name} = {metrics[name]!r} {unit}{hint}")
    correct = error is None and bench.failed == 0
    print(json.dumps({"correct": correct, "attempted": max(1, bench.attempted),
                      "failed": bench.failed, "metrics": out}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

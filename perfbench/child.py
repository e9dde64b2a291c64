"""Fresh-interpreter half of the benchmark; ``run.py`` starts it.

``setup``: import attractorlab and load the workload's configs (for
``lockin_lib``: build its GrowthConfigs); the caller times the process.

``run``: run the workload's calls in this process, CLI calls through
``attractorlab.cli.main``, optionally with every public
function of the traced modules wrapped in spans.  Prints one JSON line with
the import time, the summed call time, each call's data digest and, when
traced, the per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import json
import os
import shutil
import sys
import time

import tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _import_attractorlab() -> tuple[dict, float]:
    """Import the traced modules (``import attractorlab`` may load them all);
    return them by short name, with the import time."""
    started = time.perf_counter()
    import attractorlab

    mods = {m: importlib.import_module(f"attractorlab.{m}") for m in tracing.TRACED_MODULES}
    elapsed = time.perf_counter() - started
    expected = os.path.join(ROOT, "src", "attractorlab")
    if os.path.dirname(os.path.abspath(attractorlab.__file__)) != expected:
        raise SystemExit(f"attractorlab imported from {attractorlab.__file__}, not {expected}")
    return mods, elapsed


def _setup(wl: workloads.Workload) -> dict:
    mods, _ = _import_attractorlab()
    for call in wl.calls:
        if call.doc is None:
            workloads.lockin_configs(mods["netgrowth"], wl.seed, wl.size)
        else:
            mods["harness"].load_config(json.dumps(call.doc))
    return {}


def _run(wl: workloads.Workload, work_dir: str, traced: bool) -> dict:
    mods, import_s = _import_attractorlab()
    tracer = tracing.Tracer()
    run_s = 0.0
    digests = []
    for i, call in enumerate(wl.calls):
        out_dir = os.path.join(work_dir, f"inproc-{os.getpid()}-{i}")
        with tracing.instrument(tracer, mods.values()) if traced else contextlib.nullcontext():
            started = time.perf_counter()
            if call.argv is None:
                text = workloads.run_lockin(mods["netgrowth"], wl.seed, wl.size)
            else:
                code = mods["cli"].main([*call.argv, "--out", out_dir])
            run_s += time.perf_counter() - started
        if call.argv is None:
            digests.append(hashlib.sha256(text.encode()).hexdigest())
        else:
            if code != 0:
                raise SystemExit(f"{call.name}: attractorlab exited {code}")
            digests.append(workloads.check_outputs(out_dir))
            shutil.rmtree(out_dir)
    result = {"import_s": import_s, "run_s": run_s, "digests": digests}
    if traced:
        result["layers"], result["report"] = tracing.layer_metrics(tracer.spans)
    return result


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=["setup", "run"])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", required=True, choices=sorted(workloads.SIZES))
    ap.add_argument("--work", required=True)
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = ap.parse_args()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    wl = workloads.build(args.workload, args.seed, args.size, args.work)
    if args.mode == "setup":
        result = _setup(wl)
    else:
        result = _run(wl, args.work, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Map the bistable family: fixed-point sweep plus quasi-static loops.

Runs a bistable (theta=1) and a monostable (theta=-1) family, each kind into
its own directory, ``<out>/<bistable|monostable>/<bifurcation|hysteresis>/``
(every run replaces its directory's files), then prints the jump locations,
found in the written ``hysteresis.csv``, and the loop areas next to the
closed-form fold prediction.
"""

import argparse
import json
import math
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from attractorlab.dynamics import find_jumps  # noqa: E402
from attractorlab.harness import load_config, run_scenario  # noqa: E402


def scenario(kind, out, theta, step):
    params = {"theta": theta, "lambda_lo": -0.6, "lambda_hi": 0.6, "step": step}
    return {
        "kind": kind,
        "master_seed": 0,
        "replicates": 1,
        "output_dir": out,
        "params": params,
    }


def branches(path):
    """The up and down ``(lambda, state)`` branches of a hysteresis.csv."""
    out = {"up": [], "down": []}
    with open(path, encoding="utf-8") as fh:
        next(fh)  # header
        for line in fh:
            sweep, lam, state = line.rstrip("\n").split(",")
            out[sweep].append((float(lam), float(state)))
    return out["up"], out["down"]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="runs/hysteresis")
    ap.add_argument("--step", type=float, default=1e-3)
    args = ap.parse_args()

    fold = 2.0 / (3.0 * math.sqrt(3.0))
    print(f"closed-form folds for theta=1: lambda = +/-{fold:.6f}")

    for theta, label in ((1.0, "bistable"), (-1.0, "monostable")):
        written = []
        for kind in ("bifurcation", "hysteresis"):
            out = os.path.join(args.out, label, kind)
            config = load_config(json.dumps(scenario(kind, out, theta, args.step)))
            _, summary, manifest = run_scenario(config)
            written += [os.path.join(out, name) for name in manifest.files]
        # the hysteresis run came last; repr floats read back exactly
        up, down = branches(os.path.join(out, "hysteresis.csv"))
        tol = config.params["jump_tol"]
        print(
            f"theta={theta:+.0f}: jumps_up={list(find_jumps(up, tol))} "
            f"jumps_down={list(find_jumps(down, tol))} "
            f"loop_area={summary['loop_area'].mean:.4f}"
        )
        for path in written:
            print(f"  wrote {path}")


if __name__ == "__main__":
    main()

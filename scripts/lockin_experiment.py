#!/usr/bin/env python3
"""Reinforcement lock-in in the two-camp growth model.

Three views of the same mechanism:
  1. urn martingale: the mean final AGI share stays at the seed share while
     single runs drift toward monopoly,
  2. lock-in odds at a share threshold tau, for urn and degree modes,
  3. the attachment boost the DCI camp needs to claw back to parity,
     as a function of the AGI camp's seed advantage.
"""

import argparse
import os
import sys
from dataclasses import replace

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from attractorlab.netgrowth import (  # noqa: E402
    GrowthConfig,
    _final_shares,
    _generators,
    estimate_lockin,
    intervention_cost,
)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--nodes", type=int, default=5000)
    ap.add_argument("--replicates", type=int, default=500)
    ap.add_argument("--tau", type=float, default=0.9)
    ap.add_argument("--seed", type=int, default=42)
    args = ap.parse_args()

    base = GrowthConfig(n_nodes=args.nodes, seed_agi=2, seed_dci=1,
                        tau=args.tau, rng_seed=args.seed)
    # replicate i's final share, byte-equal to its grow(...).shares[-1]
    finals = _final_shares(base, _generators(base, range(args.replicates)), [base.dci_boost])[0]
    print(f"urn seeds (2,1): mean final AGI share {finals.mean():.4f} "
          f"(martingale predicts {2 / 3:.4f}); run-to-run sd {finals.std():.3f}")

    for mode in ("urn", "degree_pa"):
        config = replace(base, mode=mode, m=2 if mode == "degree_pa" else 1)
        est = estimate_lockin(config, args.replicates, args.tau)
        print(f"{mode}: P(lock-in AGI)={est.p_agi_lockin:.3f} "
              f"P(lock-in DCI)={est.p_dci_lockin:.3f} (+/-{est.ci_halfwidth:.3f})")

    print("minimal dci_boost for mean DCI share >= 0.5:")
    for seed_agi in (2, 4, 8, 10):
        cfg = GrowthConfig(n_nodes=2000, seed_agi=seed_agi, seed_dci=1,
                           rng_seed=args.seed)
        boost = intervention_cost(cfg, 0.5, horizon=2000)
        print(f"  seeds ({seed_agi},1): boost {boost:.3f}")


if __name__ == "__main__":
    main()

"""Two-camp growing network: arrivals pick the AGI or DCI camp with
probability proportional to camp weight, so early advantages self-reinforce.

Camp choice follows ``P(AGI) = k_agi / (k_agi + boost * k_dci)`` where the
camp weights are node counts in ``urn`` mode (one implicit edge per node,
the minimal reading, and an exact Polya urn: the AGI share is a martingale
with a random limit) or degree sums in ``degree_pa`` mode, where each
arrival wires ``m`` edges to nodes of the camp it joins.

``dci_boost`` is the intervention lever: a multiplicative weight on the DCI
camp, with 1 the plain attachment rule.  ``intervention_cost`` searches for
the smallest boost that drags the mean final DCI share up to a target.

Seed nodes in ``degree_pa`` mode are wired as a ring (three or more nodes),
a single edge (two) or left bare (one); a bare one-node camp weighs in with
its node count, 1, until its first join (bootstrap convention).  Every edge
stays inside one camp, so a camp's weight follows from its join count alone
(``2m`` degree per join) and which endpoints an arrival wires to never
affects camp choice: endpoints are neither simulated nor observable.

A camp's weight steps evenly after its first join (by 1 in urn mode, by
``2m`` in degree_pa mode, where only a bare camp's first join adds less),
so ``grow`` is one loop for both modes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .rng import make_generator, mix64

MODE_URN = "urn"
MODE_DEGREE_PA = "degree_pa"

LOCKED_AGI = "agi"
LOCKED_DCI = "dci"

DEFAULT_TAU = 0.9
DEFAULT_COST_REPLICATES = 200
MAX_BOOST = 1024.0
COST_LOG2_TOL = 0.05

# uniforms drawn per block by _final_shares, over all replicates (512 KB)
_BLOCK_DRAWS = 2 ** 16


@dataclass(frozen=True)
class CampDegrees:
    """Camp weights: node counts (urn) or degree sums (degree_pa, where a
    bare one-node camp weighs 1)."""

    k_agi: int
    k_dci: int

    def __post_init__(self):
        if self.k_agi < 0 or self.k_dci < 0:
            raise ValueError("camp degrees must be non-negative")


@dataclass(frozen=True)
class GrowthConfig:
    n_nodes: int
    m: int = 1
    seed_agi: int = 1
    seed_dci: int = 1
    mode: str = MODE_URN
    dci_boost: float = 1.0
    tau: float = DEFAULT_TAU
    rng_seed: int = 0

    def validate(self) -> None:
        if self.n_nodes < 1:
            raise ValueError(f"n_nodes must be >= 1, got {self.n_nodes}")
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")
        if self.seed_agi < 1 or self.seed_dci < 1:
            raise ValueError("both camps need at least one seed node")
        if self.mode not in (MODE_URN, MODE_DEGREE_PA):
            raise ValueError(f"unknown growth mode {self.mode!r}")
        if not (self.dci_boost >= 0.0 and math.isfinite(self.dci_boost)):
            raise ValueError(f"dci_boost must be finite and >= 0, got {self.dci_boost}")
        if not 0.5 < self.tau <= 1.0:
            raise ValueError(f"tau must lie in (0.5, 1], got {self.tau}")
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be a non-negative 64-bit integer")


@dataclass
class GrowthTrace:
    shares: np.ndarray  # AGI node share after each arrival
    final_degrees: CampDegrees
    locked_in: str | None


@dataclass(frozen=True)
class LockInEstimate:
    tau: float
    p_agi_lockin: float
    p_dci_lockin: float
    ci_halfwidth: float


def attach_probability(k: CampDegrees, dci_boost: float = 1.0) -> float:
    """P(next arrival joins the AGI camp) = k_agi / (k_agi + boost * k_dci)."""
    denom = k.k_agi + dci_boost * k.k_dci
    if denom <= 0.0:
        raise ZeroDivisionError("attachment weights sum to zero")
    return k.k_agi / denom


def _lockin_label(final_share: float, tau: float) -> str | None:
    if final_share >= tau:
        return LOCKED_AGI
    if final_share <= 1.0 - tau:
        return LOCKED_DCI
    return None


def _camp_weight(config: GrowthConfig, seeds: int, joins):
    """Weight of a camp founded by ``seeds`` nodes after ``joins`` arrivals
    joined it; elementwise on an array of join counts.

    urn: the node count.  degree_pa: the degree sum, i.e. the seed wiring
    (a ring on three or more nodes, one edge on two, none on one) plus ``2m``
    per join; a bare one-node camp weighs 1 until its first join.
    """
    if config.mode == MODE_URN:
        return seeds + joins
    weight = (2 * seeds if seeds > 2 else 2 * seeds - 2) + 2 * config.m * joins
    return weight + (weight == 0)


def grow(config: GrowthConfig) -> GrowthTrace:
    """Simulate ``config.n_nodes`` arrivals; deterministic given rng_seed.

    The trace records the AGI node share after every arrival and the final
    camp weights (node counts in urn mode, degree sums in degree_pa mode).
    One loop serves both modes, with every weight from ``_camp_weight``: a
    camp's weight steps evenly after its first join, so the loop adds the
    first step on that join and the even step on every later one.
    """
    config.validate()
    n = config.n_nodes
    boost = config.dci_boost
    sa, sd = config.seed_agi, config.seed_dci
    a0, a1, a2 = _camp_weight(config, sa, np.arange(3.0)).tolist()
    d, d1 = _camp_weight(config, sd, np.arange(2.0)).tolist()
    step = a2 - a1
    a, step_a, step_d = a0, a1 - a0, d1 - d
    weights = []
    for u in make_generator(config.rng_seed).random(n).tolist():
        if u * (a + boost * d) < a:
            a += step_a
            step_a = step
        else:
            d += step_d
            step_d = step
        weights.append(a)
    # j joins weigh a0 + first step + (j - 1) * step, with 0 < first step <= step
    agi_nodes = sa + np.ceil((np.fromiter(weights, float, n) - a0) / step)
    shares = agi_nodes / (sa + sd + np.arange(1, n + 1, dtype=float))
    degrees = CampDegrees(int(a), int(d))
    return GrowthTrace(shares, degrees, _lockin_label(float(shares[-1]), config.tau))


def _final_shares(config: GrowthConfig, replicates: int) -> np.ndarray:
    """Final AGI share of replicates ``0..replicates-1``, all stepped
    together; byte-identical to each replicate's ``grow(...).shares[-1]``.

    Replicate ``i`` draws from its own ``mix64(rng_seed, i)`` stream, in
    blocks of ``_BLOCK_DRAWS // replicates`` arrivals (at least one).
    """
    config.validate()
    n = config.n_nodes
    boost = config.dci_boost
    gens = [make_generator(mix64(config.rng_seed, i)) for i in range(replicates)]
    joins = np.arange(n + 1.0)
    w_agi = _camp_weight(config, config.seed_agi, joins)
    w_dci = _camp_weight(config, config.seed_dci, joins)
    j_agi = np.zeros(replicates, dtype=np.int64)
    block = max(1, _BLOCK_DRAWS // replicates)
    for start in range(0, n, block):
        us = np.stack([g.random(min(block, n - start)) for g in gens], axis=1)
        for t, u in enumerate(us, start):
            a = w_agi[j_agi]
            d = w_dci[t - j_agi]
            j_agi += u * (a + boost * d) < a
    return (config.seed_agi + j_agi) / float(config.seed_agi + config.seed_dci + n)


def estimate_lockin(config: GrowthConfig, replicates: int, tau: float) -> LockInEstimate:
    """Lock-in frequencies over independently seeded growths.

    Each final share is labelled by the rule of ``GrowthTrace.locked_in``
    (AGI at >= tau, DCI at <= 1 - tau).  The reported halfwidth is the
    larger of the two proportions' 95% normal approximations.
    """
    if replicates < 1:
        raise ValueError(f"replicates must be >= 1, got {replicates}")
    finals = _final_shares(replace(config, tau=tau), replicates)  # validates tau
    labels = [_lockin_label(share, tau) for share in finals.tolist()]
    p_agi = labels.count(LOCKED_AGI) / replicates
    p_dci = labels.count(LOCKED_DCI) / replicates
    se = max(
        math.sqrt(p_agi * (1.0 - p_agi) / replicates),
        math.sqrt(p_dci * (1.0 - p_dci) / replicates),
    )
    return LockInEstimate(tau, p_agi, p_dci, 1.96 * se)


def intervention_cost(
    base: GrowthConfig,
    target_dci_share: float,
    horizon: int,
    replicates: int = DEFAULT_COST_REPLICATES,
) -> float:
    """Minimal dci_boost in [1, 1024] whose mean final DCI share reaches the
    target at the horizon, or +inf when 1024 is not enough.

    Bisection runs on log2(boost) down to ``COST_LOG2_TOL``; every boost is
    evaluated on the same replicate streams (common random numbers), so the
    probed mean is a deterministic, effectively monotone function of boost.
    """
    base.validate()
    if not 0.0 < target_dci_share < 1.0:
        raise ValueError(f"target share must lie in (0, 1), got {target_dci_share}")
    if not 1 <= horizon <= base.n_nodes:
        raise ValueError(f"horizon must lie in [1, n_nodes], got {horizon}")
    if replicates < 1:
        raise ValueError(f"replicates must be >= 1, got {replicates}")

    probe = replace(base, n_nodes=horizon)

    def mean_dci(boost: float) -> float:
        finals = _final_shares(replace(probe, dci_boost=boost), replicates)
        return float(np.mean(1.0 - finals))

    if mean_dci(1.0) >= target_dci_share:
        return 1.0
    if mean_dci(MAX_BOOST) < target_dci_share:
        return math.inf

    lo, hi = 0.0, math.log2(MAX_BOOST)  # lo fails, hi passes
    while hi - lo > COST_LOG2_TOL:
        mid = 0.5 * (lo + hi)
        if mean_dci(2.0 ** mid) >= target_dci_share:
            hi = mid
        else:
            lo = mid
    return 2.0 ** hi

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
so ``grow`` is one loop for both modes.  ``grow_replicates`` and the
lock-in estimates step many replicates together, in ``_step``.  Either way
a trace is its join decisions, one 0/1 flag per arrival, and ``_trace``
turns them into AGI shares.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass, replace

import numpy as np

from .rng import check_seed, make_generator, mix64, rewind

MODE_URN = "urn"
MODE_DEGREE_PA = "degree_pa"

LOCKED_AGI = "agi"
LOCKED_DCI = "dci"

DEFAULT_TAU = 0.9
DEFAULT_COST_REPLICATES = 200
MAX_BOOST = 1024.0
COST_LOG2_TOL = 0.05

# arrivals per growth, and the largest seed count and m, so every camp weight is an
# integer below 2**53, exact in float64.  Growing one trace holds 17 bytes per arrival
# (170 MB), and writing it a fixed ~22 MB, as its CSV is formatted in chunks of rows
MAX_NODES = 10_000_000

# uniforms drawn per block: by grow as one list of Python floats (about 1 MB),
# by _step over all replicates into one buffer filled in place, where every
# boost of a call steps against the same block (256 KB).  Only a _step call that
# keeps join bits also holds the block's decisions, one bool per cell and
# arrival, until it packs them
_BLOCK_DRAWS = 2 ** 15
# replicates grow_replicates steps together; each keeps n / 8 bytes of join bits
_CHUNK_REPLICATES = 200
# a smaller chunk runs grow per replicate: _step's numpy calls cost 2.6-2.9 us an
# arrival at 16-48 replicates and grow 85-115 ns a replicate and arrival (by host), so
# with the trace rebuild they break even at 33-42 replicates for n from 2,000 to 100,000
_MIN_BATCH_REPLICATES = 36
# bisection levels whose midpoints one intervention_cost pass evaluates
_COST_LEVELS_PER_PASS = 3


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
        if self.n_nodes > MAX_NODES:
            raise ValueError(f"n_nodes={self.n_nodes:,} is above the limit of {MAX_NODES:,} arrivals")
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")
        if self.seed_agi < 1 or self.seed_dci < 1:
            raise ValueError("both camps need at least one seed node")
        for name, value, unit in (("seed_agi", self.seed_agi, "seed nodes"),
                                  ("seed_dci", self.seed_dci, "seed nodes"),
                                  ("m", self.m, "edges per arrival")):
            if value > MAX_NODES:
                raise ValueError(f"{name}={value:,} is above the limit of {MAX_NODES:,} {unit}")
        if self.mode not in (MODE_URN, MODE_DEGREE_PA):
            raise ValueError(f"unknown growth mode {self.mode!r}")
        if not (self.dci_boost >= 0.0 and math.isfinite(self.dci_boost)):
            raise ValueError(f"dci_boost must be finite and >= 0, got {self.dci_boost}")
        if not 0.5 < self.tau <= 1.0:
            raise ValueError(f"tau must lie in (0.5, 1], got {self.tau}")
        check_seed(self.rng_seed)

    __post_init__ = validate


@dataclass
class GrowthTrace:
    shares: np.ndarray  # AGI node share after each arrival
    locked_in: str | None  # the camp holding at least tau of the nodes at the end, if either


@dataclass(frozen=True)
class LockInEstimate:
    tau: float
    p_agi_lockin: float
    p_dci_lockin: float
    ci_halfwidth: float


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


def _trace(config: GrowthConfig, joins: np.ndarray) -> GrowthTrace:
    """The trace of ``config`` whose arrival ``t`` joined the AGI camp iff
    ``joins[t]`` is 1."""
    sa, seeds = config.seed_agi, config.seed_agi + config.seed_dci
    shares = (sa + np.cumsum(joins, dtype=float)) / np.arange(seeds + 1.0, seeds + config.n_nodes + 1.0)
    return GrowthTrace(shares, _lockin_label(float(shares[-1]), config.tau))


def grow(config: GrowthConfig) -> GrowthTrace:
    """Simulate ``config.n_nodes`` arrivals; deterministic given rng_seed.

    One loop serves both modes, with every weight from ``_camp_weight``: a
    camp's weight steps evenly after its first join, so the loop adds the
    first step on that join and the even step on every later one.  It draws
    its uniforms in blocks of ``_BLOCK_DRAWS`` and keeps one byte per
    arrival, set on an AGI join, for ``_trace``.
    """
    n = config.n_nodes
    boost = config.dci_boost
    a, a1, a2 = _camp_weight(config, config.seed_agi, np.arange(3.0)).tolist()
    d, d1 = _camp_weight(config, config.seed_dci, np.arange(2.0)).tolist()
    step = a2 - a1
    step_a, step_d = a1 - a, d1 - d
    joins = bytearray(n)
    rng = make_generator(config.rng_seed)
    for start in range(0, n, _BLOCK_DRAWS):
        for t, u in enumerate(rng.random(min(_BLOCK_DRAWS, n - start)).tolist(), start):
            if u * (a + boost * d) < a:
                a += step_a
                step_a = step
                joins[t] = 1
            else:
                d += step_d
                step_d = step
    return _trace(config, np.frombuffer(joins, dtype=np.uint8))


def _generators(config: GrowthConfig, indices: range) -> list[np.random.Generator]:
    """The streams of replicates ``indices``: ``mix64(config.rng_seed, i)``."""
    return [make_generator(mix64(config.rng_seed, i)) for i in indices]


def _step(config: GrowthConfig, gens: list[np.random.Generator], boosts: list[float],
          bits=None) -> np.ndarray:
    """AGI join counts of the replicates drawing from ``gens`` (in blocks of
    a multiple of 8 arrivals) after ``config.n_nodes`` arrivals under each
    boost, one cell per (boost, replicate), row-major; every boost meets the
    same uniforms with the float64 operations of ``grow``.  With one boost,
    ``bits`` (uint8, ``ceil(n / 8)`` per replicate) gets the join decisions
    by ``np.packbits``.

    An arrival is seven in-place numpy calls on buffers made once.  The DCI
    weight of ``t - j`` joins is entry ``j`` of the reversed table from
    ``n - t`` on, a contiguous slice, so no ``t - j`` array is built.  The
    takes clip, as a join count never leaves its table: the default mode
    copies ``out`` on every call.  Without ``bits`` one join row serves
    every arrival."""
    n, reps = config.n_nodes, len(gens)
    column = np.repeat(np.array(boosts, dtype=float), reps)  # each cell's boost
    w_agi = _camp_weight(config, config.seed_agi, np.arange(n + 1.0))
    w_dci_rev = _camp_weight(config, config.seed_dci, np.arange(n, -1.0, -1.0))  # at n - k joins
    j_agi = np.zeros(column.size, dtype=np.int64)
    a, d = np.empty(column.size), np.empty(column.size)
    cells = d.reshape(-1, reps)  # a view: every row meets the same u
    block = min(n, max(8, _BLOCK_DRAWS // reps // 8 * 8))
    us = np.empty((block, reps), order="F")  # a generator fills its own column
    fills = [g.random for g in gens]
    if bits is None:
        hits = itertools.repeat(np.empty(column.size, dtype=bool))
    else:
        hits = joined = np.empty((block, column.size), dtype=bool)
    for start in range(0, n, block):
        size = min(block, n - start)
        for fill, col in zip(fills, us.T):
            fill(out=col if size == block else col[:size])
        for t, u, hit in zip(range(start, start + size), us, hits):
            w_agi.take(j_agi, out=a, mode="clip")
            w_dci_rev[n - t:].take(j_agi, out=d, mode="clip")
            d *= column  # u * (a + boost * d) < a, in place
            d += a
            cells *= u
            np.less(d, a, out=hit)
            j_agi += hit
        if bits is not None:
            bits[:, start // 8:(start + size + 7) // 8] = np.packbits(joined[:size], axis=0).T
    return j_agi


def grow_replicates(config: GrowthConfig, indices: range) -> Iterator[GrowthTrace]:
    """``grow(replace(config, rng_seed=mix64(config.rng_seed, i)))`` for each
    ``i`` in ``indices``, in order and byte for byte: ``_step`` steps up to
    ``_CHUNK_REPLICATES`` of them together, and each trace is rebuilt from
    its join bits as it is yielded; a chunk below ``_MIN_BATCH_REPLICATES``
    runs ``grow`` itself."""
    n = config.n_nodes
    for lo in range(0, len(indices), _CHUNK_REPLICATES):
        chunk = indices[lo:lo + _CHUNK_REPLICATES]
        if len(chunk) < _MIN_BATCH_REPLICATES:
            yield from (grow(replace(config, rng_seed=mix64(config.rng_seed, i))) for i in chunk)
            continue
        bits = np.empty((len(chunk), (n + 7) // 8), dtype=np.uint8)
        _step(config, _generators(config, chunk), [config.dci_boost], bits)
        for row in bits:
            yield _trace(config, np.unpackbits(row, count=n))


def _final_shares(config: GrowthConfig, gens: list[np.random.Generator],
                  boosts: list[float]) -> np.ndarray:
    """Final AGI share of the replicates drawing from ``gens`` under each
    boost in ``boosts``, one row per boost; with ``_generators(config,
    range(r))`` row ``k`` is byte-identical to each replicate's
    ``grow(replace(config, dci_boost=boosts[k])).shares[-1]``."""
    finals = config.seed_agi + _step(config, gens, boosts)
    return (finals / float(config.seed_agi + config.seed_dci + config.n_nodes)).reshape(len(boosts), -1)


def estimate_lockin(config: GrowthConfig, replicates: int, tau: float) -> LockInEstimate:
    """Lock-in frequencies over independently seeded growths.

    Each final share is labelled by the rule of ``GrowthTrace.locked_in``
    (AGI at >= tau, DCI at <= 1 - tau).  The reported halfwidth is the
    larger of the two proportions' 95% normal approximations.
    """
    if replicates < 1:
        raise ValueError(f"replicates must be >= 1, got {replicates}")
    config = replace(config, tau=tau)  # validates tau
    finals = _final_shares(config, _generators(config, range(replicates)), [config.dci_boost])
    labels = [_lockin_label(share, tau) for share in finals[0].tolist()]
    p_agi = labels.count(LOCKED_AGI) / replicates
    p_dci = labels.count(LOCKED_DCI) / replicates
    se = max(
        math.sqrt(p_agi * (1.0 - p_agi) / replicates),
        math.sqrt(p_dci * (1.0 - p_dci) / replicates),
    )
    return LockInEstimate(tau, p_agi, p_dci, 1.96 * se)


def _bisection_midpoints(lo: float, hi: float, levels: int) -> list[float]:
    """Every midpoint the bisection of ``intervention_cost`` can probe in its
    next ``levels`` halvings of [lo, hi], by the loop's own arithmetic."""
    if levels == 0 or hi - lo <= COST_LOG2_TOL:
        return []
    mid = 0.5 * (lo + hi)
    return [mid, *_bisection_midpoints(lo, mid, levels - 1),
            *_bisection_midpoints(mid, hi, levels - 1)]


def intervention_cost(
    base: GrowthConfig,
    target_dci_share: float,
    horizon: int,
    replicates: int = DEFAULT_COST_REPLICATES,
) -> float:
    """Minimal dci_boost in [1, 1024] whose mean final DCI share reaches the
    target at the horizon, or +inf when 1024 is not enough.

    Bisection runs on log2(boost) down to ``COST_LOG2_TOL``, every boost on
    the same replicate streams (common random numbers).  The probes come in
    batched passes: one ``_final_shares`` call evaluates the two end boosts
    and every midpoint of the first two levels, and each later call the
    midpoints of the next three.  The bisection's ``>= target`` decisions
    are then replayed on those means in order, so the answer is the plain
    one-probe-at-a-time bisection's, whatever the shape of the mean in boost.
    A full search takes three passes, of 5, 7 and 7 boosts; an exit at 1 or
    +inf takes the first.  Each replicate's generator is built once and
    rewound to its first draw after every pass.
    """
    if not 0.0 < target_dci_share < 1.0:
        raise ValueError(f"target share must lie in (0, 1), got {target_dci_share}")
    if not 1 <= horizon <= base.n_nodes:
        raise ValueError(f"horizon must lie in [1, n_nodes], got {horizon}")
    if replicates < 1:
        raise ValueError(f"replicates must be >= 1, got {replicates}")

    probe = replace(base, n_nodes=horizon)
    seeds = [mix64(probe.rng_seed, i) for i in range(replicates)]
    gens = [make_generator(seed) for seed in seeds]

    def mean_dci(log2_boosts: list[float]) -> dict[float, float]:
        finals = _final_shares(probe, gens, [2.0 ** x for x in log2_boosts])
        for g, seed in zip(gens, seeds):  # the next pass meets the same uniforms
            rewind(g, seed)
        return {x: float(np.mean(1.0 - row)) for x, row in zip(log2_boosts, finals)}

    lo, hi = 0.0, math.log2(MAX_BOOST)  # boosts 1 and MAX_BOOST
    # the two ends stand in for one level, so the first pass stays small
    means = mean_dci([lo, hi, *_bisection_midpoints(lo, hi, _COST_LEVELS_PER_PASS - 1)])
    if means[lo] >= target_dci_share:
        return 1.0
    if means[hi] < target_dci_share:
        return math.inf

    while hi - lo > COST_LOG2_TOL:  # lo fails, hi passes
        mid = 0.5 * (lo + hi)
        if mid not in means:
            means = mean_dci(_bisection_midpoints(lo, hi, _COST_LEVELS_PER_PASS))
        if means[mid] >= target_dci_share:
            hi = mid
        else:
            lo = mid
    return 2.0 ** hi

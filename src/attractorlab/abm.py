"""Evolutionary imitation game between a cooperative and a competitive camp.

Agents hold one of two strategies, cooperate (labelled ``dci``-aligned) or
defect (``agi``-aligned), and sit on an interaction topology.  Each round is
synchronous: every agent samples one random neighbor, compares payoffs, and
adopts the neighbor's strategy with a probability set by the update rule.
Proportional imitation is the default because its well-mixed expected motion
per round equals one step of the replicator flow
``dx/dt = x (1 - x) (P_C - P_D)`` of size ``1 / span(game)``; the Fermi rule
is provided for robustness checks.

Each rule is written once: ``step`` takes every agent's payoff from
``_payoffs_by_strategy`` (``payoff_of`` reads one entry) and its chance to
imitate from ``adoption_probability``.

All randomness flows through a Philox generator seeded per run, so a config
determines its trace exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from itertools import chain

import numpy as np

from .rng import make_generator, mix64

OUTCOME_AGI = "agi_first"
OUTCOME_DCI = "dci_first"
OUTCOME_UNDECIDED = "undecided"

DEFAULT_S_C = 0.1
DEFAULT_S_D = 0.9


class IsolatedAgentError(ValueError):
    """An imported topology contains a degree-0 node."""


@dataclass(frozen=True)
class GameMatrix:
    """2x2 payoff matrix: row player cooperates (r, sg) or defects (t, pu)."""

    r: float   # C meets C
    sg: float  # C meets D
    t: float   # D meets C
    pu: float  # D meets D

    def __post_init__(self):
        for name in ("r", "sg", "t", "pu"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"game matrix entry {name} must be finite")

    def span(self) -> float:
        """Largest minus smallest matrix entry (payoff normalization)."""
        entries = (self.r, self.sg, self.t, self.pu)
        return max(entries) - min(entries)


@dataclass(frozen=True)
class WellMixed:
    """Every agent interacts with all others."""


@dataclass(frozen=True)
class RingLattice:
    """Ring of n agents, each linked to its k nearest neighbors (k even)."""

    k: int


@dataclass(frozen=True)
class _Adjacency:
    """CSR neighbor arrays of an imported graph, neighbors sorted per node."""

    degree: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray


def _compile_edges(edges: tuple[tuple[int, int], ...], n: int) -> _Adjacency:
    """Validate a simple graph on nodes 0..n-1 and build its CSR arrays."""
    try:
        flat = np.fromiter(chain.from_iterable(edges), dtype=np.int64, count=2 * len(edges))
    except OverflowError:
        raise ValueError(f"node ids must lie in [0, {n})") from None
    arr = flat.reshape(-1, 2)
    outside = (arr < 0) | (arr >= n)
    if outside.any():
        row, col = np.argwhere(outside)[0]
        raise ValueError(
            f"node {arr[row, col]} of edge ({arr[row, 0]}, {arr[row, 1]}) "
            f"outside node range [0, {n})"
        )
    u, v = arr[:, 0], arr[:, 1]
    loops = np.flatnonzero(u == v)
    if loops.size:
        raise ValueError(f"self-loop at node {u[loops[0]]}")
    # one sorted array of packed (source, target) keys, both orientations:
    # a repeated key is a duplicate edge, and the targets in key order are
    # the CSR neighbor lists, each sorted so sampling is reproducible
    keys = np.sort(np.concatenate((u * n + v, v * n + u)))
    repeated = np.flatnonzero(keys[1:] == keys[:-1])
    if repeated.size:
        a, b = divmod(int(keys[repeated[0]]), n)
        raise ValueError(f"duplicate edge ({a}, {b})")
    src, indices = np.divmod(keys, n)
    degree = np.bincount(src, minlength=n)
    if degree.min(initial=1) == 0:
        raise IsolatedAgentError(
            f"node {int(np.argmin(degree))} has no neighbors in the imported graph"
        )
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degree, out=indptr[1:])
    return _Adjacency(degree, indptr, indices)


@dataclass(frozen=True)
class Imported:
    """Simple undirected graph on nodes 0..n-1, given as an edge tuple.

    Building one validates the graph (ValueError naming the first bad node
    or edge, IsolatedAgentError for a node without neighbors) and compiles
    its neighbor arrays, ``adjacency``, which every simulation on it reuses.
    """

    edges: tuple[tuple[int, int], ...]
    n: int
    adjacency: _Adjacency = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "adjacency", _compile_edges(self.edges, self.n))


Topology = WellMixed | RingLattice | Imported


@dataclass(frozen=True)
class ProportionalImitation:
    """Adopt with probability max(0, payoff gap) / span(game)."""


@dataclass(frozen=True)
class Fermi:
    """Adopt with logistic probability 1 / (1 + exp(-beta * payoff gap))."""

    beta: float

    def __post_init__(self):
        if not (self.beta >= 0.0 and math.isfinite(self.beta)):
            raise ValueError(f"fermi beta must be finite and >= 0, got {self.beta}")


UpdateRule = ProportionalImitation | Fermi


def check_x0(*x0s: float) -> None:
    """Each initial cooperator fraction lies in [0, 1], and no two are equal
    (a basin keys its counts by x0, so a repeat would merge two cells)."""
    for i, x0 in enumerate(x0s):
        if not 0.0 <= x0 <= 1.0:
            raise ValueError(f"x0 must lie in [0, 1], got {x0}")
        if x0 in x0s[:i]:
            raise ValueError(f"x0={x0} is repeated; the initial fractions must be distinct")


def check_thresholds(s_c: float, s_d: float) -> None:
    """Outcome thresholds satisfy 0 <= s_c < s_d <= 1."""
    if not 0.0 <= s_c < s_d <= 1.0:
        raise ValueError(f"need 0 <= s_c < s_d <= 1, got s_c={s_c}, s_d={s_d}")


@dataclass(frozen=True)
class AbmConfig:
    n: int
    x0: float
    game: GameMatrix
    topology: Topology = field(default_factory=WellMixed)
    update: UpdateRule = field(default_factory=ProportionalImitation)
    noise: float = 0.0
    rounds: int = 0
    rng_seed: int = 0

    def validate(self) -> None:
        if self.n < 2:
            raise ValueError(f"need at least 2 agents, got n={self.n}")
        check_x0(self.x0)
        if not 0.0 <= self.noise <= 1.0:
            raise ValueError(f"noise must lie in [0, 1], got {self.noise}")
        if self.rounds < 0:
            raise ValueError(f"rounds must be >= 0, got {self.rounds}")
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be a non-negative 64-bit integer")
        if isinstance(self.topology, RingLattice):
            k = self.topology.k
            if k < 2 or k % 2 != 0:
                raise ValueError(f"ring lattice degree must be even and >= 2, got {k}")
            if k >= self.n:
                raise ValueError(f"ring lattice degree k={k} must be < n={self.n}")
        if isinstance(self.topology, Imported) and self.topology.n != self.n:
            raise ValueError(f"imported graph was built for {self.topology.n} nodes, not n={self.n}")


@dataclass
class Population:
    """Strategy vector plus the topology it interacts on."""

    strategies: np.ndarray  # bool, True = cooperate
    topology: Topology

    @property
    def n(self) -> int:
        return int(self.strategies.size)

    def coop_fraction(self) -> float:
        return float(self.strategies.sum()) / self.strategies.size


@dataclass
class AbmTrace:
    coop_fraction: np.ndarray  # length rounds + 1
    outcome: str


# ---------------------------------------------------------------------------
# Topology helpers
# ---------------------------------------------------------------------------

def load_edge_list(text: str) -> tuple[tuple[int, int], ...]:
    """Parse the edge-list interchange format: one ``u v`` pair per line.

    Node ids are 0-based integers, edges undirected; duplicates (in either
    orientation) and self-loops are rejected.
    """
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts:
            continue
        if len(parts) != 2:
            raise ValueError(f"edge list line {lineno}: expected 'u v', got {raw!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"edge list line {lineno}: non-integer node id in {raw!r}") from None
        if u < 0 or v < 0:
            raise ValueError(f"edge list line {lineno}: node ids must be >= 0")
        if u == v:
            raise ValueError(f"edge list line {lineno}: self-loop {u}")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise ValueError(f"edge list line {lineno}: duplicate edge {key}")
        seen.add(key)
        edges.append(key)
    return tuple(edges)


def _ring_offsets(k: int) -> np.ndarray:
    half = k // 2
    return np.array([o for o in range(-half, half + 1) if o != 0], dtype=np.int64)


# ---------------------------------------------------------------------------
# Payoffs
# ---------------------------------------------------------------------------

def payoff_of(agent: int, population: Population, game: GameMatrix) -> float:
    """Mean game payoff of ``agent`` against its interaction neighbors: its
    entry of the payoffs ``step`` uses.

    Well-mixed populations play against the strategy mix excluding self.
    """
    if isinstance(population.topology, WellMixed) and population.n < 2:
        raise IsolatedAgentError("well-mixed payoff needs at least 2 agents")
    pi_c, pi_d = _payoffs_by_strategy(population, game)
    return float(np.where(population.strategies, pi_c, pi_d)[agent])


def adoption_probability(update: UpdateRule, payoff_gap, payoff_span: float) -> np.ndarray:
    """Probability of copying a sampled neighbor, elementwise over the gaps
    (neighbor's payoff minus one's own), a scalar or an array.

    With a degenerate game (span 0) proportional imitation never switches.
    """
    if isinstance(update, ProportionalImitation):
        if payoff_span <= 0.0:
            return np.zeros_like(payoff_gap, dtype=np.float64)
        return np.maximum(0.0, payoff_gap) / payoff_span
    z = np.clip(update.beta * payoff_gap, -700.0, 700.0)
    return 1.0 / (1.0 + np.exp(-z))


def _payoffs_by_strategy(pop: Population, game: GameMatrix) -> tuple:
    """Mean game payoff each agent earns as a cooperator and as a defector.

    Well-mixed populations play against the strategy mix excluding self, so
    both are scalars there: the payoff of any cooperator and any defector.
    """
    strat = pop.strategies
    n = pop.n
    if isinstance(pop.topology, WellMixed):
        nc = int(strat.sum())
        pi_c = ((nc - 1) * game.r + (n - nc) * game.sg) / (n - 1)
        pi_d = (nc * game.t + (n - nc - 1) * game.pu) / (n - 1)
        return pi_c, pi_d
    # cooperating neighbors (ncn) out of deg neighbors, per agent
    if isinstance(pop.topology, RingLattice):
        deg = pop.topology.k
        coop = strat.astype(np.int64)
        ncn = np.zeros(n, dtype=np.int64)
        for o in _ring_offsets(deg):
            ncn += np.roll(coop, -int(o))
    else:
        adj = pop.topology.adjacency
        coop = strat.astype(np.float64)
        ncn = np.add.reduceat(coop[adj.indices], adj.indptr[:-1])
        deg = adj.degree.astype(np.float64)
    pi_if_c = (game.r * ncn + game.sg * (deg - ncn)) / deg
    pi_if_d = (game.t * ncn + game.pu * (deg - ncn)) / deg
    return pi_if_c, pi_if_d


# ---------------------------------------------------------------------------
# Dynamics
# ---------------------------------------------------------------------------

def step(population: Population, config: AbmConfig, rng: np.random.Generator) -> Population:
    """One synchronous round: sample a neighbor, maybe imitate, then mutate.

    Draw order is fixed: neighbor draws, adoption draws, then (only when
    noise > 0) mutation draws.  In the well-mixed case the sampled
    neighbor's strategy is drawn directly from the self-excluded mix, which
    matches sampling a uniform other agent.
    """
    strat = population.strategies
    n = population.n
    game = config.game
    pi_c, pi_d = _payoffs_by_strategy(population, game)
    pi = np.where(strat, pi_c, pi_d)

    if isinstance(population.topology, WellMixed):
        nc = int(strat.sum())
        p_nbr_c = np.where(strat, (nc - 1) / (n - 1), nc / (n - 1))
        nbr_strat = rng.random(n) < p_nbr_c
        pi_nbr = np.where(nbr_strat, pi_c, pi_d)
    else:
        if isinstance(population.topology, RingLattice):
            offsets = _ring_offsets(population.topology.k)
            picks = rng.integers(0, offsets.size, size=n)
            nbr_idx = (np.arange(n) + offsets[picks]) % n
        else:
            adj = population.topology.adjacency
            u = rng.random(n)
            picks = (u * adj.degree).astype(np.int64)
            nbr_idx = adj.indices[adj.indptr[:-1] + picks]
        nbr_strat = strat[nbr_idx]
        pi_nbr = pi[nbr_idx]

    adopt = rng.random(n) < adoption_probability(config.update, pi_nbr - pi, game.span())
    new = np.where(adopt, nbr_strat, strat)
    if config.noise > 0.0:
        flips = rng.random(n) < config.noise
        new = new ^ flips
    return Population(new, population.topology)


def attractor_classify(final_x: float, s_c: float, s_d: float) -> str:
    """Label a final cooperator fraction by the threshold pair (s_c, s_d)."""
    check_thresholds(s_c, s_d)
    if final_x <= s_c:
        return OUTCOME_AGI
    if final_x >= s_d:
        return OUTCOME_DCI
    return OUTCOME_UNDECIDED


def run(config: AbmConfig, s_c: float = DEFAULT_S_C, s_d: float = DEFAULT_S_D) -> AbmTrace:
    """Simulate ``config.rounds`` rounds and classify the final fraction.

    Exactly ``round(x0 * n)`` cooperators are placed by a seeded shuffle, so
    the first trace entry is the realized initial fraction.  An imported
    graph brings the neighbor arrays it compiled when it was built.
    Config and thresholds are checked before the first round.
    """
    config.validate()
    check_thresholds(s_c, s_d)
    rng = make_generator(config.rng_seed)
    n = config.n
    k = round(config.x0 * n)
    order = rng.permutation(n)
    strat = np.zeros(n, dtype=bool)
    strat[order[:k]] = True
    pop = Population(strat, config.topology)

    fractions = np.empty(config.rounds + 1)
    fractions[0] = k / n
    for r in range(1, config.rounds + 1):
        pop = step(pop, config, rng)
        fractions[r] = pop.coop_fraction()
    return AbmTrace(fractions, attractor_classify(float(fractions[-1]), s_c, s_d))


def mean_field_time_step(game: GameMatrix) -> float:
    """Replicator time advanced by one proportional-imitation round.

    The expected per-round change of the cooperator fraction is
    ``x (1 - x) (P_C - P_D) / span``, one explicit step of size 1/span.
    """
    span = game.span()
    if span <= 0.0:
        raise ValueError("degenerate game: payoff span is 0")
    return 1.0 / span


def basin_replicate(
    template: AbmConfig,
    x0_list: list[float],
    replicate: int,
    s_c: float = DEFAULT_S_C,
    s_d: float = DEFAULT_S_D,
) -> list[str]:
    """Outcome per entry of ``x0_list`` for one replicate of a basin experiment.

    Cell (replicate r, x0 index i) uses the stream derived from
    ``(template.rng_seed, r * len(x0_list) + i)``, so results are
    independent of evaluation order.
    """
    outcomes = []
    for i, x0 in enumerate(x0_list):
        seed = mix64(template.rng_seed, replicate * len(x0_list) + i)
        cfg = replace(template, x0=float(x0), rng_seed=seed)
        outcomes.append(run(cfg, s_c, s_d).outcome)
    return outcomes


def basin_experiment(
    template: AbmConfig,
    x0_list: list[float],
    replicates: int,
    s_c: float = DEFAULT_S_C,
    s_d: float = DEFAULT_S_D,
) -> dict[float, dict[str, int]]:
    """Outcome counts per initial fraction over seeded replicates (see
    ``basin_replicate`` for the stream of each cell).  Every x0 is checked
    before the first cell runs."""
    if not x0_list:
        raise ValueError("x0_list must be non-empty")
    if replicates < 1:
        raise ValueError(f"replicates must be >= 1, got {replicates}")
    check_x0(*x0_list)
    counts = {
        float(x0): {OUTCOME_AGI: 0, OUTCOME_DCI: 0, OUTCOME_UNDECIDED: 0}
        for x0 in x0_list
    }
    for r in range(replicates):
        for x0, outcome in zip(x0_list, basin_replicate(template, x0_list, r, s_c, s_d)):
            counts[float(x0)][outcome] += 1
    return counts

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
``_payoffs_by_strategy``, on a graph one gather from a table built per game
(``payoff_of`` reads one entry), and its chance to imitate from
``adoption_probability``.  Every round of a run fills one set of buffers in
place; an imported graph's neighbor counts carry over, updated for the
agents that switched, and the graph keeps only the arrays it compiles.

All randomness flows through a Philox generator seeded per run, drawn in a
fixed order each round (neighbors, adoptions, then mutations when noise > 0),
so a config determines its trace exactly.
"""

from __future__ import annotations

import math
import re
from dataclasses import InitVar, dataclass, field, replace

import numpy as np

from .rng import make_generator, mix64

OUTCOME_AGI = "agi_first"
OUTCOME_DCI = "dci_first"
OUTCOME_UNDECIDED = "undecided"
OUTCOMES = (OUTCOME_AGI, OUTCOME_DCI, OUTCOME_UNDECIDED)

# Work-size limits of one run, checked before its topology is built: 1000 and
# 333 times the largest config in the tests and the benchmark (10,000 agents
# x 30 rounds).  A run holds about 37 (well mixed), 77 (ring) or 113
# (imported, mean degree 4, whose graph holds 56 more) bytes per agent, 1.7 GB
# at MAX_AGENTS, and takes 14-21 ns per agent-round at 10^5 to 4 * 10^5
# agents.  A round's fixed 11-24 us make MAX_ROUNDS take 11-24 s at any n.
MAX_AGENTS = 10_000_000
MAX_AGENT_ROUNDS = 100_000_000
MAX_ROUNDS = 1_000_000


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
    """Ring of n agents, each linked to its k nearest neighbors (k even).

    Building one checks k and computes ``offsets``, the neighbor offsets
    -k/2..-1, 1..k/2 as int64, which every round on it reuses.
    """

    k: int
    offsets: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.k < 2 or self.k % 2 != 0:
            raise ValueError(f"ring lattice degree must be even and >= 2, got {self.k}")
        half = self.k // 2
        offsets = np.array([o for o in range(-half, half + 1) if o != 0], dtype=np.int64)
        object.__setattr__(self, "offsets", offsets)


def _compile_edges(edges, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Validate a simple graph on nodes 0..n-1 and return its CSR degree, indptr and indices."""
    try:
        arr = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    except OverflowError:
        raise ValueError(f"node ids must lie in [0, {n})") from None
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
    return degree, indptr, indices


@dataclass(frozen=True, eq=False)
class Imported:
    """Simple undirected graph on nodes 0..n-1, built from ``(u, v)`` edges
    (an ``(m, 2)`` int64 array, as ``load_edge_list`` returns, or pairs).

    Building one validates the graph (ValueError naming the first bad node
    or edge, IsolatedAgentError for a node without neighbors) and compiles
    its CSR neighbor arrays and payoff-table layout, reused by every run on it.
    The edges are not kept: two graphs are equal when their neighbor arrays are.
    """

    edges: InitVar[object]
    n: int
    degree: np.ndarray = field(init=False, repr=False)
    indptr: np.ndarray = field(init=False, repr=False)
    indices: np.ndarray = field(init=False, repr=False)
    blocks: np.ndarray = field(init=False, repr=False)  # the distinct degrees, ascending
    base: np.ndarray = field(init=False, repr=False)  # each node's payoff-table block start

    def __post_init__(self, edges):
        for name, array in zip(("degree", "indptr", "indices"), _compile_edges(edges, self.n)):
            object.__setattr__(self, name, array)
        blocks, block_of = np.unique(self.degree, return_inverse=True)  # a block of 2 (d + 1) keys per d
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "base", 2 * (np.cumsum(blocks + 1) - blocks - 1)[block_of])

    def __eq__(self, other):
        return (isinstance(other, Imported) and np.array_equal(self.indptr, other.indptr)
                and np.array_equal(self.indices, other.indices))


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


def check_size(n: int, rounds: int) -> None:
    """A run has 2 to MAX_AGENTS agents, 0 to MAX_ROUNDS rounds and at most
    MAX_AGENT_ROUNDS agent-rounds (n x rounds)."""
    if n < 2:
        raise ValueError(f"need at least 2 agents, got n={n}")
    if n > MAX_AGENTS:
        raise ValueError(f"n={n:,} is above the limit of {MAX_AGENTS:,} agents")
    if rounds < 0:
        raise ValueError(f"rounds must be >= 0, got {rounds}")
    if n * rounds > MAX_AGENT_ROUNDS:
        raise ValueError(f"n={n:,} x rounds={rounds:,} asks for {n * rounds:,} agent-rounds, "
                         f"above the limit of {MAX_AGENT_ROUNDS:,}")
    if rounds > MAX_ROUNDS:
        raise ValueError(f"rounds={rounds:,} is above the limit of {MAX_ROUNDS:,} rounds")


def check_thresholds(s_c: float, s_d: float) -> None:
    """Outcome thresholds satisfy 0 <= s_c < s_d <= 1."""
    if not 0.0 <= s_c < s_d <= 1.0:
        raise ValueError(f"need 0 <= s_c < s_d <= 1, got s_c={s_c}, s_d={s_d}")


@dataclass(frozen=True)
class AbmConfig:
    """One population run, checked when it is built (``replace`` included);
    ``s_c`` and ``s_d`` are the thresholds that label its final fraction."""

    n: int
    x0: float
    game: GameMatrix
    topology: Topology = field(default_factory=WellMixed)
    update: UpdateRule = field(default_factory=ProportionalImitation)
    noise: float = 0.0
    rounds: int = 0
    rng_seed: int = 0
    s_c: float = 0.1
    s_d: float = 0.9

    def validate(self) -> None:
        check_size(self.n, self.rounds)
        check_x0(self.x0)
        if not 0.0 <= self.noise <= 1.0:
            raise ValueError(f"noise must lie in [0, 1], got {self.noise}")
        if not 0 <= self.rng_seed < 2 ** 64:
            raise ValueError("rng_seed must be a non-negative 64-bit integer")
        if isinstance(self.topology, RingLattice) and self.topology.k >= self.n:
            raise ValueError(f"ring lattice degree k={self.topology.k} must be < n={self.n}")
        if isinstance(self.topology, Imported) and self.topology.n != self.n:
            raise ValueError(f"imported graph was built for {self.topology.n} nodes, not n={self.n}")
        check_thresholds(self.s_c, self.s_d)

    __post_init__ = validate


@dataclass
class Population:
    """Strategy vector plus the topology it interacts on."""

    strategies: np.ndarray  # bool, True = cooperate
    topology: Topology

    @property
    def n(self) -> int:
        return int(self.strategies.size)


@dataclass
class AbmTrace:
    coop_fraction: np.ndarray  # length rounds + 1
    outcome: str


# ---------------------------------------------------------------------------
# Topology helpers
# ---------------------------------------------------------------------------

def load_edge_list(text: str) -> np.ndarray:
    """Parse the edge-list interchange format, one ``u v`` pair per line,
    into an ``(m, 2)`` int64 array, edges undirected and kept as written.

    Only the syntax and the int64 range are checked here, naming the line;
    building an ``Imported`` graph rejects ids out of range, self-loops and
    duplicates.  Plain text is parsed in one numpy pass, other text by line.
    """
    ids = _plain_node_ids(text)
    if ids is not None:
        return ids.reshape(-1, 2)
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts:
            continue
        if len(parts) != 2:
            raise ValueError(f"edge list line {lineno}: expected 'u v', got {raw!r}")
        try:
            pair = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"edge list line {lineno}: non-integer node id in {raw!r}") from None
        if not -1 << 63 <= min(pair) <= max(pair) < 1 << 63:
            raise ValueError(f"edge list line {lineno}: node id outside int64 in {raw!r}")
        edges.append(pair)
    # the dtype is explicit: an empty list would infer float64
    return np.array(edges, dtype=np.int64).reshape(-1, 2)


_NOT_A_PAIR = re.compile(r"^(?![ \t]*(?:[+-]?[0-9]{1,18}[ \t]+[+-]?[0-9]{1,18}[ \t]*)?$)", re.M)


def _plain_node_ids(text: str) -> np.ndarray | None:
    """The node ids in one numpy pass, or None unless each line of the text
    (LF, CR or CRLF ended) is blank or two ``[+-]digits`` tokens of <= 18
    ASCII digits split by spaces or tabs.  Blank text, read as 0 by numpy, has none."""
    if _NOT_A_PAIR.search(text.replace("\r", "\n")):
        return None
    return np.zeros(0, np.int64) if text.isspace() else np.fromstring(text, np.int64, sep=" ")


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
    b = _Buffers(population.n, population.topology)
    payoffs = _payoffs_by_strategy(population, game, b)
    mixed = isinstance(population.topology, WellMixed)
    return float(payoffs[not population.strategies[agent] if mixed else b.key[agent]])


def adoption_probability(update: UpdateRule, payoff_gap, payoff_span: float, out=None):
    """Probability of copying a sampled neighbor, elementwise over the gaps
    (neighbor's payoff minus one's own), a scalar or an array.  It is
    written into ``out`` when given, which may be ``payoff_gap`` itself.

    With a degenerate game (span 0) proportional imitation never switches.
    """
    p = np.empty_like(payoff_gap, dtype=np.float64) if out is None else out
    if isinstance(update, ProportionalImitation) and payoff_span <= 0.0:
        p[...] = 0.0
    elif isinstance(update, ProportionalImitation):
        np.divide(np.maximum(0.0, payoff_gap, out=p), payoff_span, out=p)
    else:  # 1 / (1 + exp(-clip(beta * gap)))
        np.clip(np.multiply(update.beta, payoff_gap, out=p), -700.0, 700.0, out=p)
        np.divide(1.0, np.add(1.0, np.exp(np.negative(p, out=p), out=p), out=p), out=p)
    return p[()]


def _payoffs_by_strategy(pop: Population, game: GameMatrix, b: _Buffers):
    """Mean game payoff each agent earns as a cooperator and as a defector.

    Well-mixed populations play against the strategy mix excluding self, so
    both are scalars there: the payoff of any cooperator and any defector.
    On a graph it returns their table (``2 (d + 1)`` entries per degree d,
    built for each new game ``b`` meets) and writes each agent's own key
    ``base + 2 c + s`` (c cooperating neighbors, strategy s) into ``b.key``.
    """
    strat = pop.strategies
    n = pop.n
    if isinstance(pop.topology, WellMixed):
        nc = np.count_nonzero(strat)
        pi_c = ((nc - 1) * game.r + (n - nc) * game.sg) / (n - 1)
        pi_d = (nc * game.t + (n - nc - 1) * game.pu) / (n - 1)
        return pi_c, pi_d
    if b.game is not game:  # c = 0..d in the block of each degree d
        ncf = np.concatenate([np.arange(d + 1.0) for d in b.blocks])
        deg = np.repeat(b.blocks.astype(np.float64), b.blocks + 1)
        ndf, b.table, b.game = deg - ncf, np.empty(2 * deg.size), game
        for out, on_c, on_d in ((b.table[1::2], game.r, game.sg), (b.table[::2], game.t, game.pu)):
            out[...] = (np.multiply(on_c, ncf) + np.multiply(on_d, ndf)) / deg
    if isinstance(pop.topology, RingLattice):  # one block: the key is 2 c + s
        np.multiply(strat, 2, out=b.coop)
        np.copyto(b.key, strat)
        for s in (pop.topology.offsets % n).tolist():  # neighbor i + o is (i + o) mod n
            b.key[:n - s] += b.coop[s:]
            b.key[n - s:] += b.coop[:s]
    else:
        # keys of the row b.counted: each agent that differs adds +2 (now
        # cooperating) or -2 to each neighbor's; add.at sums shared neighbors
        adj, changed = pop.topology, np.flatnonzero(strat != b.counted)
        reps = adj.degree[changed]  # the CSR slices of the changed rows, in turn
        skip = adj.indptr[changed] - np.cumsum(reps) + reps
        nbrs = adj.indices[np.arange(reps.sum()) + np.repeat(skip, reps)]
        np.add.at(b.ncn, nbrs, np.repeat(np.where(strat[changed], 2, -2), reps))
        np.copyto(b.counted, strat)
        np.add(b.ncn, strat, out=b.key)
    return b.table


# ---------------------------------------------------------------------------
# Dynamics
# ---------------------------------------------------------------------------

class _Buffers:
    """Work arrays of one run, sized to its n and topology.  A round writes
    the one of the two ``strategies`` rows that its input is not, so the
    population a round returns is overwritten two rounds later.  An imported
    graph's keys ``ncn`` (``base + 2 c``) are of the row ``counted``; a ring recounts."""

    def __init__(self, n: int, topology: Topology):
        self.nbr, self.adopt, *self.strategies = np.empty((4, n), dtype=bool)
        self.u, self.pi, self.pi_nbr = np.empty((3, n))
        if isinstance(topology, WellMixed):
            return
        self.idx, self.key = np.zeros((2, n), dtype=np.int64)
        self.game = self.table = None
        if isinstance(topology, RingLattice):
            self.agents, self.coop = np.arange(n, dtype=np.int64), np.empty(n, dtype=np.int64)
            self.blocks = np.array([topology.k])
        else:  # the keys of the all-defector row: a first round counts in full
            self.counted, self.ncn = np.zeros(n, dtype=bool), topology.base.copy()
            self.degree, self.blocks = topology.degree.astype(np.float64), topology.blocks


def step(population: Population, config: AbmConfig, rng: np.random.Generator,
         buffers: _Buffers | None = None) -> Population:
    """One synchronous round: sample a neighbor, maybe imitate, then mutate.

    Draw order is fixed: neighbor draws, adoption draws, then (only when
    noise > 0) mutation draws.  In the well-mixed case the sampled
    neighbor's strategy is drawn directly from the self-excluded mix, which
    matches sampling a uniform other agent.

    Each round fills the ``buffers`` that ``run`` made for all its rounds
    (or makes its own), so it allocates little: the ring's neighbor draw and
    arrays sized to the switched agents.  The input is never written.
    """
    strat = population.strategies
    n = population.n
    b = _Buffers(n, population.topology) if buffers is None else buffers
    payoffs = _payoffs_by_strategy(population, config.game, b)
    pi, nbr, pi_nbr, u = b.pi, b.nbr, b.pi_nbr, b.u
    if isinstance(population.topology, WellMixed):
        pi_c, pi_d = payoffs
        np.copyto(pi, pi_d)
        np.putmask(pi, strat, pi_c)  # np.where(strat, pi_c, pi_d), without a new array
        nc = np.count_nonzero(strat)
        pi_nbr.fill(nc / (n - 1))  # the chance the neighbor cooperates
        np.putmask(pi_nbr, strat, (nc - 1) / (n - 1))
        np.less(rng.random(n, out=u), pi_nbr, out=nbr)
        np.copyto(pi_nbr, pi_d)
        np.putmask(pi_nbr, nbr, pi_c)
    else:
        np.take(payoffs, b.key, out=pi, mode="wrap")  # each agent's entry of the table
        idx = b.idx
        if isinstance(population.topology, RingLattice):
            offsets = population.topology.offsets
            np.take(offsets, rng.integers(0, offsets.size, size=n), out=idx, mode="wrap")
            idx += b.agents
        else:
            np.multiply(rng.random(n, out=u), b.degree, out=u)
            np.copyto(idx, u, casting="unsafe")  # truncates, as astype does
            idx += population.topology.indptr[:-1]
            np.take(population.topology.indices, idx, out=idx, mode="wrap")
        # "wrap" maps ring i + offset into 0..n-1; unlike "raise" it never copies out
        np.take(strat, idx, out=nbr, mode="wrap")
        np.take(pi, idx, out=pi_nbr, mode="wrap")

    gap = np.subtract(pi_nbr, pi, out=pi_nbr)
    prob = adoption_probability(config.update, gap, config.game.span(), out=gap)
    adopt = np.less(rng.random(n, out=u), prob, out=b.adopt)
    # adopters take their neighbor's strategy: strat ^ ((nbr ^ strat) & adopt)
    new = b.strategies[strat is b.strategies[0]]
    np.bitwise_and(np.bitwise_xor(nbr, strat, out=new), adopt, out=new)
    np.bitwise_xor(new, strat, out=new)
    if config.noise > 0.0:
        np.logical_xor(new, np.less(rng.random(n, out=u), config.noise, out=b.adopt), out=new)
    return Population(new, population.topology)


def attractor_classify(final_x: float, s_c: float, s_d: float) -> str:
    """Label a final cooperator fraction by the threshold pair (s_c, s_d)."""
    check_thresholds(s_c, s_d)
    if final_x <= s_c:
        return OUTCOME_AGI
    if final_x >= s_d:
        return OUTCOME_DCI
    return OUTCOME_UNDECIDED


def run(config: AbmConfig, buffers: _Buffers | None = None) -> AbmTrace:
    """Simulate ``config.rounds`` rounds and classify the final fraction by
    the config's thresholds (on ``buffers``, or its own).

    Exactly ``round(x0 * n)`` cooperators are placed by a seeded shuffle, so
    the first trace entry is the realized initial fraction.  An imported
    graph brings the neighbor arrays it compiled when it was built, and a
    ring lattice its neighbor offsets.
    """
    rng = make_generator(config.rng_seed)
    n = config.n
    k = round(config.x0 * n)
    order = rng.permutation(n)
    strat = np.zeros(n, dtype=bool)
    strat[order[:k]] = True
    pop = Population(strat, config.topology)
    buffers = _Buffers(n, config.topology) if buffers is None else buffers

    fractions = np.empty(config.rounds + 1)
    fractions[0] = k / n
    for r in range(1, config.rounds + 1):
        pop = step(pop, config, rng, buffers)
        fractions[r] = np.count_nonzero(pop.strategies) / n
    return AbmTrace(fractions, attractor_classify(float(fractions[-1]), config.s_c, config.s_d))


def mean_field_time_step(game: GameMatrix) -> float:
    """Replicator time advanced by one proportional-imitation round.

    The expected per-round change of the cooperator fraction is
    ``x (1 - x) (P_C - P_D) / span``, one explicit step of size 1/span.
    """
    span = game.span()
    if span <= 0.0:
        raise ValueError("degenerate game: payoff span is 0")
    return 1.0 / span


def basin_replicate(template: AbmConfig, x0_list: list[float], replicate: int) -> list[str]:
    """Outcome per entry of ``x0_list`` for one replicate of a basin experiment.

    Cell (replicate r, x0 index i) uses the stream derived from
    ``(template.rng_seed, r * len(x0_list) + i)``, so results are
    independent of evaluation order.  The cells share one set of buffers.
    """
    outcomes, buffers = [], _Buffers(template.n, template.topology)
    for i, x0 in enumerate(x0_list):
        seed = mix64(template.rng_seed, replicate * len(x0_list) + i)
        cfg = replace(template, x0=float(x0), rng_seed=seed)
        outcomes.append(run(cfg, buffers).outcome)
    return outcomes


def basin_experiment(
    template: AbmConfig, x0_list: list[float], replicates: int
) -> dict[float, dict[str, int]]:
    """Outcome counts per initial fraction over seeded replicates (see
    ``basin_replicate`` for the stream of each cell).  Every x0 is checked
    before the first cell runs."""
    if not x0_list:
        raise ValueError("x0_list must be non-empty")
    if replicates < 1:
        raise ValueError(f"replicates must be >= 1, got {replicates}")
    check_x0(*x0_list)
    counts = {float(x0): dict.fromkeys(OUTCOMES, 0) for x0 in x0_list}
    for r in range(replicates):
        for x0, outcome in zip(x0_list, basin_replicate(template, x0_list, r)):
            counts[float(x0)][outcome] += 1
    return counts

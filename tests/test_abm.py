import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from attractorlab import abm as abm_mod
from attractorlab.abm import (
    AbmConfig,
    Fermi,
    GameMatrix,
    Imported,
    IsolatedAgentError,
    Population,
    ProportionalImitation,
    RingLattice,
    WellMixed,
    adoption_probability,
    attractor_classify,
    basin_experiment,
    load_edge_list,
    mean_field_time_step,
    payoff_of,
    run,
    step,
)
from attractorlab.rng import make_generator, mix64

COORDINATION = GameMatrix(r=1, sg=0, t=0, pu=1)  # interior unstable point at 1/2
DEFECT_WINS = GameMatrix(r=1, sg=1, t=2, pu=2)   # constant payoffs P_C=1, P_D=2


def population(bits, topology=None):
    return Population(np.array(bits, dtype=bool), topology or WellMixed())


def reference_game_payoff(game, mine, other):
    """``GameMatrix.payoff`` as it was before ``payoff_of`` was vectorized."""
    if mine:
        return game.r if other else game.sg
    return game.t if other else game.pu


def reference_payoff(agent, population, game):
    """The scalar ``payoff_of`` loop that ``_payoffs_by_strategy`` replaced;
    only its graph lookup reads the arrays an ``Imported`` now compiles when
    it is built."""
    strat = population.strategies
    n = population.n
    topo = population.topology
    mine = bool(strat[agent])
    if isinstance(topo, WellMixed):
        if n < 2:
            raise IsolatedAgentError("well-mixed payoff needs at least 2 agents")
        nc = int(strat.sum()) - (1 if mine else 0)
        nd = (n - 1) - nc
        return (nc * reference_game_payoff(game, mine, True)
                + nd * reference_game_payoff(game, mine, False)) / (n - 1)
    if isinstance(topo, RingLattice):
        total = 0.0
        for o in topo.offsets:
            total += reference_game_payoff(game, mine, bool(strat[(agent + int(o)) % n]))
        return total / topo.k
    adj = topo
    nbrs = adj.indices[adj.indptr[agent]:adj.indptr[agent + 1]]
    total = 0.0
    for j in nbrs:
        total += reference_game_payoff(game, mine, bool(strat[int(j)]))
    return total / nbrs.size


def _ring_offsets(k):
    """Neighbor offsets of a ring lattice as ``step`` computed them every
    round before ``RingLattice`` kept its own."""
    half = k // 2
    return np.array([o for o in range(-half, half + 1) if o != 0], dtype=np.int64)


def reference_adoption(update, payoff_gap, payoff_span):
    """The scalar ``adoption_probability`` that the array version replaced."""
    if isinstance(update, ProportionalImitation):
        if payoff_span <= 0.0:
            return 0.0
        return max(0.0, payoff_gap / payoff_span)
    z = min(700.0, max(-700.0, update.beta * payoff_gap))
    return 1.0 / (1.0 + math.exp(-z))


def reference_payoffs_by_strategy(pop, game):
    """``_payoffs_by_strategy`` before it filled per-run buffers: k rolled
    copies on a ring, a float gather and reduceat on an imported graph."""
    strat = pop.strategies
    n = pop.n
    if isinstance(pop.topology, WellMixed):
        nc = int(strat.sum())
        pi_c = ((nc - 1) * game.r + (n - nc) * game.sg) / (n - 1)
        pi_d = (nc * game.t + (n - nc - 1) * game.pu) / (n - 1)
        return pi_c, pi_d
    if isinstance(pop.topology, RingLattice):
        deg = pop.topology.k
        coop = strat.astype(np.int64)
        ncn = np.zeros(n, dtype=np.int64)
        for o in pop.topology.offsets:
            ncn += np.roll(coop, -int(o))
    else:
        adj = pop.topology
        coop = strat.astype(np.float64)
        ncn = np.add.reduceat(coop[adj.indices], adj.indptr[:-1])
        deg = adj.degree.astype(np.float64)
    pi_if_c = (game.r * ncn + game.sg * (deg - ncn)) / deg
    pi_if_d = (game.t * ncn + game.pu * (deg - ncn)) / deg
    return pi_if_c, pi_if_d


def reference_adoption_probability(update, payoff_gap, payoff_span):
    """The array ``adoption_probability`` before it could write into ``out``."""
    if isinstance(update, ProportionalImitation):
        if payoff_span <= 0.0:
            return np.zeros_like(payoff_gap, dtype=np.float64)
        return np.maximum(0.0, payoff_gap) / payoff_span
    z = np.clip(update.beta * payoff_gap, -700.0, 700.0)
    return 1.0 / (1.0 + np.exp(-z))


def reference_step(population, config, rng):
    """``step`` as it was before ``run`` gave it per-run buffers: every
    round allocated a dozen n-sized arrays."""
    strat = population.strategies
    n = population.n
    game = config.game
    pi_c, pi_d = reference_payoffs_by_strategy(population, game)
    pi = np.where(strat, pi_c, pi_d)
    if isinstance(population.topology, WellMixed):
        nc = int(strat.sum())
        p_nbr_c = np.where(strat, (nc - 1) / (n - 1), nc / (n - 1))
        nbr_strat = rng.random(n) < p_nbr_c
        pi_nbr = np.where(nbr_strat, pi_c, pi_d)
    else:
        if isinstance(population.topology, RingLattice):
            offsets = population.topology.offsets
            picks = rng.integers(0, offsets.size, size=n)
            nbr_idx = (np.arange(n) + offsets[picks]) % n
        else:
            adj = population.topology
            u = rng.random(n)
            picks = (u * adj.degree).astype(np.int64)
            nbr_idx = adj.indices[adj.indptr[:-1] + picks]
        nbr_strat = strat[nbr_idx]
        pi_nbr = pi[nbr_idx]
    adopt = rng.random(n) < reference_adoption_probability(config.update, pi_nbr - pi, game.span())
    new = np.where(adopt, nbr_strat, strat)
    if config.noise > 0.0:
        new = new ^ (rng.random(n) < config.noise)
    return Population(new, population.topology)


entries = st.floats(-1e3, 1e3, allow_nan=False)
games = st.builds(GameMatrix, entries, entries, entries, entries)
zero_span_games = st.builds(lambda v: GameMatrix(v, v, v, v), entries)


@st.composite
def populations(draw):
    """A strategy vector on a well-mixed, ring (even k < n) or imported
    topology; an imported graph is a random simple graph in which every
    node that drew no edge is joined to one drawn partner."""
    kind = draw(st.sampled_from(["well_mixed", "ring", "imported"]))
    n = draw(st.integers(2, 24) if kind != "ring" else st.integers(3, 24))
    bits = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    if kind == "well_mixed":
        return population(bits)
    if kind == "ring":
        return population(bits, RingLattice(2 * draw(st.integers(1, (n - 1) // 2))))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = {p for p in pairs if draw(st.booleans())}
    for node in range(n):
        if not any(node in e for e in edges):
            partner = draw(st.integers(0, n - 2))
            partner += partner >= node
            edges.add((min(node, partner), max(node, partner)))
    edges = [(v, u) if draw(st.booleans()) else (u, v) for u, v in sorted(edges)]
    return population(bits, Imported(tuple(draw(st.permutations(edges))), n))


# ---------------------------------------------------------------------------
# Payoffs
# ---------------------------------------------------------------------------

def test_payoff_all_cooperators():
    pop = population([1, 1, 1, 1])
    game = GameMatrix(r=1, sg=0, t=0, pu=0)
    assert payoff_of(0, pop, game) == pytest.approx(1.0)


def test_payoff_lone_defector():
    pop = population([1, 1, 0, 1])
    game = GameMatrix(r=1, sg=0, t=5, pu=0)
    assert payoff_of(2, pop, game) == pytest.approx(5.0)


def test_payoff_ring_center_defector():
    pop = population([1, 0, 1], RingLattice(k=2))
    game = GameMatrix(r=1, sg=0, t=5, pu=0)
    assert payoff_of(1, pop, game) == pytest.approx(5.0)


def test_payoff_imported_matches_adjacency():
    edges = ((0, 1), (1, 2))
    pop = population([1, 0, 1], Imported(edges, 3))
    game = GameMatrix(r=3, sg=1, t=5, pu=0)
    assert payoff_of(1, pop, game) == pytest.approx(5.0)  # two C neighbors
    assert payoff_of(0, pop, game) == pytest.approx(1.0)  # one D neighbor


def test_payoff_isolated_agent_rejected():
    # the graph is checked when it is built, before any payoff is asked for
    with pytest.raises(IsolatedAgentError, match="node 2"):
        Imported(((0, 1),), 3)
    with pytest.raises(IsolatedAgentError):
        payoff_of(0, population([1]), GameMatrix(1, 1, 1, 1))


@pytest.mark.parametrize("entry", [math.nan, math.inf, -math.inf, 1e308, -1e301,
                                   math.nextafter(1e300, math.inf)])
def test_game_matrix_rejects_an_entry_past_max_payoff(entry):
    with pytest.raises(ValueError, match=r"game matrix entry t must be finite and at most 1e\+300 in magnitude"):
        GameMatrix(1, 0, entry, 1)


@pytest.mark.parametrize("topology", [WellMixed(), RingLattice(2), Imported(((0, 1), (1, 2), (2, 3), (3, 0)), 4)])
@pytest.mark.parametrize("update", [ProportionalImitation(), Fermi(2.0)])
def test_a_game_at_max_payoff_runs_without_overflow(topology, update):
    big = 1e300  # abm.MAX_PAYOFF
    cfg = AbmConfig(n=4, x0=0.5, game=GameMatrix(big, -big, -big, big), rounds=5, topology=topology,
                    update=update, noise=0.1, rng_seed=3)
    with np.errstate(all="raise"):
        trace = run(cfg)
    assert np.isfinite(trace.coop_fraction).all()


@given(pop=populations(), game=games)
def test_payoff_of_matches_the_scalar_loop(pop, game):
    # exact where both sum the same counts; elsewhere the two differ only in
    # summation order, so the bound is relative to the largest game entry
    scale = max(abs(game.r), abs(game.sg), abs(game.t), abs(game.pu))
    for agent in range(pop.n):
        got, want = payoff_of(agent, pop, game), reference_payoff(agent, pop, game)
        if isinstance(pop.topology, WellMixed):
            assert got == want
        else:
            assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-12 * scale)


# ---------------------------------------------------------------------------
# Update rules
# ---------------------------------------------------------------------------

def test_adoption_probability_fermi_beta_zero():
    assert adoption_probability(Fermi(0.0), 100.0, 1.0) == 0.5
    assert adoption_probability(Fermi(0.0), -100.0, 1.0) == 0.5


def test_adoption_probability_proportional():
    assert adoption_probability(ProportionalImitation(), 0.5, 1.0) == 0.5
    assert adoption_probability(ProportionalImitation(), -0.5, 1.0) == 0.0
    assert adoption_probability(ProportionalImitation(), 1.0, 0.0) == 0.0


@given(
    gap=st.floats(-10, 10, allow_nan=False),
    span=st.floats(0.0, 10, allow_nan=False),
    beta=st.floats(0, 50, allow_nan=False),
)
def test_adoption_probability_bounds(gap, span, beta):
    gap = max(-span, min(span, gap)) if span > 0 else gap
    for rule in (ProportionalImitation(), Fermi(beta)):
        p = adoption_probability(rule, gap, span)
        assert 0.0 <= p <= 1.0


rules = st.one_of(st.just(ProportionalImitation()), st.builds(Fermi, st.floats(0, 1e3)))
gaps = st.floats(-2e3, 2e3, allow_nan=False)


def assert_adoption_matches(rule, got, want):
    # numpy's exp and math.exp may differ in the last two bits, so the Fermi
    # rule is held to 1e-15; proportional imitation must match exactly
    rtol = 0.0 if isinstance(rule, ProportionalImitation) else 1e-15
    np.testing.assert_allclose(got, want, rtol=rtol, atol=0.0)


@given(rule=rules, gap=gaps, span=st.sampled_from([0.0, 0.5, 1.0, 3.7, 2e3]))
def test_adoption_probability_matches_the_scalar_rule_on_a_scalar(rule, gap, span):
    got = adoption_probability(rule, gap, span)
    assert np.shape(got) == ()
    assert_adoption_matches(rule, got, reference_adoption(rule, gap, span))


@given(rule=rules, gap=st.lists(gaps, max_size=20), span=st.sampled_from([0.0, 1.0, 3.7]))
def test_adoption_probability_matches_the_scalar_rule_elementwise(rule, gap, span):
    got = adoption_probability(rule, np.array(gap, dtype=np.float64), span)
    assert got.shape == (len(gap),) and got.dtype == np.float64
    assert_adoption_matches(rule, got, [reference_adoption(rule, g, span) for g in gap])
    # written in place over the gaps, as ``step`` calls it, the bytes agree
    in_place = np.array(gap, dtype=np.float64)
    assert adoption_probability(rule, in_place, span, out=in_place).tobytes() == got.tobytes()


def test_step_absorbing_states():
    cfg = AbmConfig(n=16, x0=1.0, game=COORDINATION, rounds=0, noise=0.0)
    rng = make_generator(0)
    for bits in ([1] * 16, [0] * 16):
        pop = population(bits)
        for rule in (ProportionalImitation(), Fermi(2.0)):
            nxt = step(pop, replace(cfg, update=rule), rng)
            assert np.array_equal(nxt.strategies, pop.strategies)


def test_step_preserves_population_size():
    cfg = AbmConfig(n=30, x0=0.5, game=COORDINATION, noise=0.2, rounds=0, rng_seed=3)
    rng = make_generator(3)
    pop = population([1, 0] * 15)
    for _ in range(10):
        pop = step(pop, cfg, rng)
        assert pop.n == 30


def assert_rounds_match_the_oracle(pop, cfg, rng, ref_rng, buffers, rounds, edit=None):
    """Run ``step`` and ``reference_step`` side by side for ``rounds`` rounds,
    comparing strategy bytes and generator state after each; ``edit`` may
    change the returned population in place before the next round."""
    ref = Population(pop.strategies.copy(), pop.topology)
    for r in range(rounds):
        pop = step(pop, cfg, rng, buffers)
        ref = reference_step(ref, cfg, ref_rng)
        assert pop.strategies.dtype == bool
        assert pop.strategies.tobytes() == ref.strategies.tobytes(), r
        np.testing.assert_equal(rng.bit_generator.state, ref_rng.bit_generator.state)
        if edit is not None:
            edit(pop.strategies, r)
            ref.strategies = pop.strategies.copy()


@given(
    pop=populations(),
    game=st.one_of(games, zero_span_games),
    rule=rules,
    noise=st.sampled_from([0.0, 0.05, 0.5]),
    seed=st.integers(0, 2**64 - 1),
    reuse=st.booleans(),
)
def test_step_matches_the_allocating_oracle_round_after_round(pop, game, rule, noise, seed, reuse):
    # one set of buffers carries every round, as in ``run``: a round that
    # wrote into the strategies it reads, or into its input, would show here,
    # and so would neighbor counts carried wrong over 30 rounds
    cfg = AbmConfig(n=pop.n, x0=0.5, game=game, topology=pop.topology, update=rule, noise=noise)
    buffers = abm_mod._Buffers(pop.n, pop.topology) if reuse else None
    first, start = pop, pop.strategies.copy()
    assert_rounds_match_the_oracle(pop, cfg, make_generator(seed), make_generator(seed),
                                   buffers, 30)
    assert first.strategies.tobytes() == start.tobytes()  # the input is never written


def random_graph(n, extra, seed):
    """A ring over n nodes plus ``extra`` seeded chords, none repeated."""
    rng = np.random.default_rng(seed)
    edges = {(i, (i + 1) % n) for i in range(n)}
    while len(edges) < n + extra:
        u, v = sorted(rng.integers(0, n, 2).tolist())
        if u != v and (u, v) not in edges and (v, u) not in edges:
            edges.add((u, v))
    return Imported(tuple(sorted(edges)), n)


GRAPHS = {"ring": lambda n: RingLattice(4), "imported": lambda n: random_graph(n, 2 * n, 5)}


@pytest.mark.parametrize("noise", [0.0, 0.02])
@pytest.mark.parametrize("kind", sorted(GRAPHS))
def test_step_matches_the_oracle_over_40_rounds_on_a_larger_graph(kind, noise):
    # at n = 400 agents keep switching for many rounds, so counts carried
    # from round to round are compared while they still change
    n = 400
    topology = GRAPHS[kind](n)
    cfg = AbmConfig(n=n, x0=0.5, game=COORDINATION, topology=topology, noise=noise)
    pop = Population(make_generator(3).random(n) < 0.5, topology)
    assert_rounds_match_the_oracle(pop, cfg, make_generator(4), make_generator(4),
                                   abm_mod._Buffers(n, topology), 40)


@pytest.mark.parametrize("kind", sorted(GRAPHS))
def test_a_foreign_population_on_reused_buffers_matches_the_oracle(kind):
    # the buffers hold counts of another run's population; the next step
    # must count for the population it is given
    n = 300
    topology = GRAPHS[kind](n)
    cfg = AbmConfig(n=n, x0=0.5, game=GameMatrix(3, 0, 5, 1), topology=topology, noise=0.01)
    buffers = abm_mod._Buffers(n, topology)
    rng = make_generator(8)
    own = Population(make_generator(6).random(n) < 0.5, topology)
    for _ in range(3):
        own = step(own, cfg, rng, buffers)
    foreign = Population(make_generator(7).random(n) < 0.3, topology)
    assert_rounds_match_the_oracle(foreign, cfg, make_generator(9), make_generator(9), buffers, 5)


@pytest.mark.parametrize("kind", sorted(GRAPHS))
def test_a_population_flipped_in_place_between_steps_matches_the_oracle(kind):
    # the returned strategies live in the buffers; flipping some of them
    # before the next step must be counted as any other switch
    n = 300
    topology = GRAPHS[kind](n)
    cfg = AbmConfig(n=n, x0=0.5, game=COORDINATION, topology=topology)
    pop = Population(make_generator(10).random(n) < 0.5, topology)

    def flip(strategies, r):
        strategies[(7 * r) % n::37] ^= True

    buffers = abm_mod._Buffers(n, topology)
    assert_rounds_match_the_oracle(pop, cfg, make_generator(11), make_generator(11),
                                   buffers, 12, edit=flip)
    # so must flipping the input of a step and passing it again
    mine, rng, ref_rng = pop.strategies.copy(), make_generator(12), make_generator(12)
    for r in range(5):
        got = step(Population(mine, topology), cfg, rng, buffers)
        want = reference_step(Population(mine.copy(), topology), cfg, ref_rng)
        assert got.strategies.tobytes() == want.strategies.tobytes(), r
        flip(mine, r)


@pytest.mark.parametrize("kind", ["well_mixed", *sorted(GRAPHS)])
def test_a_run_on_buffers_another_run_used_gives_the_same_trace(kind):
    # the cells of a basin replicate share one set of buffers
    n = 200
    topology = WellMixed() if kind == "well_mixed" else GRAPHS[kind](n)
    cfg = AbmConfig(n=n, x0=0.4, game=COORDINATION, topology=topology, rounds=20, rng_seed=12)
    buffers = abm_mod._Buffers(n, topology)
    run(replace(cfg, x0=0.7, rng_seed=13), buffers)
    assert run(cfg, buffers).coop_fraction.tobytes() == run(cfg).coop_fraction.tobytes()


def _round_transient(round_fn, pop) -> int:
    """Peak bytes traced while one round runs, after a first untraced round."""
    pop = round_fn(pop)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        round_fn(pop)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("kind", ["ring", "imported"])
def test_a_round_on_run_buffers_allocates_at_most_half_of_the_oracle(kind):
    # at n = 10k the oracle round allocates about 800 KB; a round on the
    # buffers of a run allocates only the ring's neighbor draw (80 KB)
    n = 10_000
    if kind == "ring":
        topology = RingLattice(4)
    else:
        edges = tuple((i, (i + o) % n) for o in (1, 2, 5, 13) for i in range(n))
        topology = Imported(edges, n)
    cfg = AbmConfig(n=n, x0=0.5, game=COORDINATION, topology=topology, noise=0.01)
    pop = Population(make_generator(1).random(n) < 0.5, topology)
    rng = make_generator(2)
    buffers = abm_mod._Buffers(n, topology)
    got = _round_transient(lambda p: step(p, cfg, rng, buffers), pop)
    oracle = _round_transient(lambda p: reference_step(p, cfg, rng), pop)
    assert got <= oracle / 2, (got, oracle)


@st.composite
def many_block_populations(draw):
    """A strategy vector on a graph with many degree blocks: a ring with
    k = 2, 4 or 10, a hub joined to some nodes of a ring, or a graph whose
    node i links to a drawn number of the nodes before it."""
    kind = draw(st.sampled_from(["ring", "hub", "degrees"]))
    if kind == "ring":
        k = draw(st.sampled_from([2, 4, 10]))
        n, topology = draw(st.integers(k + 1, 40)), RingLattice(k)
    else:
        n = draw(st.integers(4, 60))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        if kind == "hub":  # the ring 1..n-1, and spokes from node 0
            spokes = rng.choice(np.arange(1, n), rng.integers(1, n), replace=False)
            edges = [(i, i % (n - 1) + 1) for i in range(1, n)] + [(0, int(j)) for j in spokes]
        else:
            edges = [(i, int(j)) for i in range(1, n)
                     for j in rng.choice(i, rng.integers(1, i + 1), replace=False)]
        topology = Imported(edges, n)
    bits = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return population(bits, topology)


NON_DYADIC_GAMES = st.sampled_from([GameMatrix(0.1, 1 / 3, 2 / 3, 0.2), GameMatrix(1 / 3, 0.1, -0.1, 1 / 3),
                                    GameMatrix(0.1, 0.1, 0.1, 0.1)])


@given(pop=many_block_populations(), game=st.one_of(NON_DYADIC_GAMES, games, zero_span_games),
       flips=st.lists(st.integers(0, 59), max_size=8))
def test_the_payoff_table_gives_the_reference_payoffs_bit_for_bit(pop, game, flips):
    # each agent's entry under its own strategy (key) and under the other
    # (key ^ 1) against the allocating formula, selected by strategy; then
    # again on the same buffers after some agents switch
    buffers = abm_mod._Buffers(pop.n, pop.topology)
    for _ in range(2):
        table = abm_mod._payoffs_by_strategy(pop, game, buffers)
        pi_c, pi_d = reference_payoffs_by_strategy(pop, game)
        strat = pop.strategies
        assert table[buffers.key].tobytes() == np.where(strat, pi_c, pi_d).tobytes()
        assert table[buffers.key ^ 1].tobytes() == np.where(strat, pi_d, pi_c).tobytes()
        if isinstance(pop.topology, RingLattice):
            assert table.size == 2 * (pop.topology.k + 1)
        else:
            assert table.size <= 2 * (pop.topology.indices.size + pop.n)
        switched = strat.copy()
        switched[[f % pop.n for f in flips]] ^= True
        pop = Population(switched, pop.topology)


@pytest.mark.parametrize("kind", sorted(GRAPHS))
def test_a_game_changed_between_steps_on_reused_buffers_matches_the_oracle(kind):
    # the buffers keep the payoff table of the game they last met; a step
    # with another game must use that game's payoffs
    n = 300
    topology = GRAPHS[kind](n)
    buffers = abm_mod._Buffers(n, topology)
    pop = Population(make_generator(13).random(n) < 0.5, topology)
    rng, ref_rng = make_generator(14), make_generator(14)
    for game in (COORDINATION, GameMatrix(3, 0, 5, 1), COORDINATION, DEFECT_WINS):
        cfg = AbmConfig(n=n, x0=0.5, game=game, topology=topology)
        want = np.where(pop.strategies, *reference_payoffs_by_strategy(pop, game))
        ref = reference_step(Population(pop.strategies.copy(), topology), cfg, ref_rng)
        pop = step(pop, cfg, rng, buffers)
        assert buffers.pi.tobytes() == want.tobytes()
        assert pop.strategies.tobytes() == ref.strategies.tobytes()


# ---------------------------------------------------------------------------
# Runs and classification
# ---------------------------------------------------------------------------

def test_attractor_classify():
    assert attractor_classify(0.05, 0.1, 0.9) == "agi_first"
    assert attractor_classify(0.95, 0.1, 0.9) == "dci_first"
    assert attractor_classify(0.5, 0.1, 0.9) == "undecided"
    assert attractor_classify(0.1, 0.1, 0.9) == "agi_first"  # closed thresholds
    with pytest.raises(ValueError):
        attractor_classify(0.5, 0.9, 0.1)


@given(
    final_x=st.floats(0, 1, allow_nan=False),
    scale=st.floats(0.1, 100, allow_nan=False),
)
def test_attractor_classify_scale_free(final_x, scale):
    # classification depends only on final_x and thresholds
    assert attractor_classify(final_x, 0.2, 0.8) == attractor_classify(
        final_x, 0.2, 0.8
    )
    del scale


def test_run_absorbing_extremes():
    cfg = AbmConfig(n=50, x0=1.0, game=COORDINATION, rounds=20, rng_seed=1)
    trace = run(cfg)
    assert np.all(trace.coop_fraction == 1.0)
    assert trace.outcome == "dci_first"
    trace = run(replace(cfg, x0=0.0))
    assert np.all(trace.coop_fraction == 0.0)
    assert trace.outcome == "agi_first"


def test_run_trace_shape_and_initial_fraction():
    cfg = AbmConfig(n=40, x0=0.33, game=COORDINATION, rounds=7, rng_seed=5)
    trace = run(cfg)
    assert len(trace.coop_fraction) == 8
    assert trace.coop_fraction[0] == round(0.33 * 40) / 40


def test_run_deterministic():
    cfg = AbmConfig(
        n=60, x0=0.4, game=COORDINATION, topology=RingLattice(k=4),
        update=Fermi(1.5), noise=0.05, rounds=25, rng_seed=77,
    )
    a, b = run(cfg), run(cfg)
    assert np.array_equal(a.coop_fraction, b.coop_fraction)
    assert a.outcome == b.outcome


def test_run_validates_config():
    with pytest.raises(ValueError):
        run(AbmConfig(n=1, x0=0.5, game=COORDINATION, rounds=1))
    with pytest.raises(ValueError):
        run(AbmConfig(n=10, x0=1.5, game=COORDINATION, rounds=1))
    with pytest.raises(ValueError):
        run(AbmConfig(n=10, x0=0.5, game=COORDINATION, rounds=1,
                      topology=RingLattice(k=3)))


@pytest.mark.parametrize("n, rounds, message", [
    (abm_mod.MAX_AGENTS + 1, 0, "n=10,000,001 is above the limit of 10,000,000 agents"),
    (10 ** 12, 1, "n=1,000,000,000,000 is above the limit of 10,000,000 agents"),
    (10_000, 10_001, "n=10,000 x rounds=10,001 asks for 100,010,000 agent-rounds, above the limit of 100,000,000"),
    (2, 10 ** 12, "n=2 x rounds=1,000,000,000,000 asks for 2,000,000,000,000 agent-rounds"),
    (2, abm_mod.MAX_ROUNDS + 1, "rounds=1,000,001 is above the limit of 1,000,000 rounds"),
])
def test_work_size_is_checked_when_the_config_is_built(n, rounds, message):
    with pytest.raises(ValueError, match=message):
        AbmConfig(n=n, x0=0.5, game=COORDINATION, rounds=rounds)


def test_rng_seed_is_checked_as_a_64_bit_integer():
    # a seed past 64 bits would be masked to another seed's streams; a float
    # failed inside make_generator at the first draw, and True ran seed 1's streams
    assert AbmConfig(n=10, x0=0.5, game=COORDINATION, rng_seed=2 ** 64 - 1).rng_seed == 2 ** 64 - 1
    for seed in (2 ** 64, 2 ** 64 + 3, -1, 1.5, 1.0, True, "1", None):
        with pytest.raises(ValueError, match="rng_seed must be a non-negative 64-bit integer"):
            AbmConfig(n=10, x0=0.5, game=COORDINATION, rng_seed=seed)


def test_drift_sign_matches_phase_line():
    # coordination game: drift negative below the interior point, positive above
    def one_step_mean_delta(x0, seed_base):
        deltas = []
        for i in range(200):
            cfg = AbmConfig(n=400, x0=x0, game=COORDINATION, rounds=1,
                            rng_seed=mix64(seed_base, i))
            trace = run(cfg)
            deltas.append(trace.coop_fraction[1] - trace.coop_fraction[0])
        return float(np.mean(deltas))

    assert one_step_mean_delta(0.3, 101) < 0
    assert one_step_mean_delta(0.7, 202) > 0


def test_mean_field_time_step():
    assert mean_field_time_step(DEFECT_WINS) == 1.0
    assert mean_field_time_step(GameMatrix(0, 0, 2, 2)) == 0.5
    with pytest.raises(ValueError):
        mean_field_time_step(GameMatrix(1, 1, 1, 1))


def test_run_tracks_replicator_flow():
    # smoke-scale version of the mean-field equivalence check
    from attractorlab.dynamics import closed_form_logistic

    h = mean_field_time_step(DEFECT_WINS)
    rounds, x0 = 8, 0.1
    trajs = [
        run(AbmConfig(n=2000, x0=x0, game=DEFECT_WINS, rounds=rounds,
                      rng_seed=mix64(55, s))).coop_fraction
        for s in range(5)
    ]
    mean_traj = np.mean(trajs, axis=0)
    ode = [closed_form_logistic(x0, -1.0, k * h) for k in range(rounds + 1)]
    assert max(abs(a - b) for a, b in zip(mean_traj, ode)) < 0.08


# ---------------------------------------------------------------------------
# Basins
# ---------------------------------------------------------------------------

def test_basin_extreme_initial_fractions():
    tmpl = AbmConfig(n=40, x0=0.5, game=COORDINATION, rounds=10, rng_seed=9)
    counts = basin_experiment(tmpl, [0.0, 1.0], replicates=6)
    assert counts[0.0] == {"agi_first": 6, "dci_first": 0, "undecided": 0}
    assert counts[1.0] == {"agi_first": 0, "dci_first": 6, "undecided": 0}


def test_basin_flip_across_interior_point():
    tmpl = AbmConfig(n=2000, x0=0.5, game=COORDINATION, rounds=30, rng_seed=31)
    counts = basin_experiment(tmpl, [0.4, 0.6], replicates=10)
    assert counts[0.4]["agi_first"] >= 9
    assert counts[0.6]["dci_first"] >= 9


@pytest.mark.parametrize("s_c, s_d", [(0.9, 0.1), (0.5, 0.5), (-0.1, 0.9), (0.1, 1.1)])
def test_run_checks_thresholds_before_any_round(monkeypatch, s_c, s_d):
    calls = []
    real_step = abm_mod.step
    monkeypatch.setattr(abm_mod, "step", lambda *args: calls.append(1) or real_step(*args))
    cfg = AbmConfig(n=10, x0=0.5, game=COORDINATION, rounds=5)
    with pytest.raises(ValueError, match="s_c"):
        run(replace(cfg, s_c=s_c, s_d=s_d))
    assert calls == []
    run(cfg)
    assert len(calls) == 5


def test_replace_checks_thresholds_without_a_run():
    # the config checks itself when built, so a bad pair never reaches run
    cfg = AbmConfig(n=10, x0=0.5, game=COORDINATION, rounds=5)
    with pytest.raises(ValueError, match="s_c=0.9, s_d=0.1"):
        replace(cfg, s_c=0.9, s_d=0.1)


def test_basin_checks_every_x0_before_any_cell(monkeypatch):
    calls = []
    monkeypatch.setattr(abm_mod, "run", lambda *args: calls.append(args))
    tmpl = AbmConfig(n=10, x0=0.5, game=COORDINATION, rounds=1)
    with pytest.raises(ValueError, match="1.5"):
        basin_experiment(tmpl, [0.2, 0.5, 1.5], replicates=2)
    assert calls == []


def test_basin_rejects_a_repeated_x0_before_any_cell(monkeypatch):
    # counts are keyed by x0, so a repeat would merge two cells' outcomes
    calls = []
    monkeypatch.setattr(abm_mod, "run", lambda *args: calls.append(args))
    tmpl = AbmConfig(n=10, x0=0.5, game=COORDINATION, rounds=1)
    with pytest.raises(ValueError, match="x0=0.5 is repeated"):
        basin_experiment(tmpl, [0.5, 0.2, 0.5], replicates=4)
    assert calls == []


def test_basin_validates():
    tmpl = AbmConfig(n=10, x0=0.5, game=COORDINATION, rounds=1)
    with pytest.raises(ValueError):
        basin_experiment(tmpl, [], replicates=3)
    with pytest.raises(ValueError):
        basin_experiment(tmpl, [0.5], replicates=0)


# ---------------------------------------------------------------------------
# Edge-list interchange
# ---------------------------------------------------------------------------

def test_load_edge_list():
    edges = load_edge_list("0 1\n1 2\n\n2 3\n")
    assert edges.tolist() == [list(e) for e in reference_load_edge_list("0 1\n1 2\n\n2 3\n")]
    assert edges.tolist() == [[0, 1], [1, 2], [2, 3]]


def test_load_edge_list_names_the_bad_line():
    with pytest.raises(ValueError, match="line 2"):
        load_edge_list("0 1\n0 one\n")
    with pytest.raises(ValueError, match="expected"):
        load_edge_list("0 1 2\n")


def test_load_edge_list_keeps_edges_as_written():
    # duplicates and self-loops pass the loader and fail when the graph is built
    text = "0 1\n1 0\n3 3\n"
    assert load_edge_list(text).tolist() == [list(e) for e in reference_load_edge_list(text)]


def reference_load_edge_list(text):
    """``load_edge_list`` as it was before plain text was parsed in bulk: one
    line at a time, each token read by ``int``."""
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts:
            continue
        if len(parts) != 2:
            raise ValueError(f"edge list line {lineno}: expected 'u v', got {raw!r}")
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise ValueError(f"edge list line {lineno}: non-integer node id in {raw!r}") from None
    return tuple(edges)


def digits(draw, plain):
    """An integer token that ``int`` reads: optional sign and leading zeros,
    and, unless ``plain``, ``_`` groups or more than 18 characters."""
    sign = draw(st.sampled_from(["", "+", "-"]))
    body = str(draw(st.integers(0, 10**6 if plain else 10**30)))
    if not plain and draw(st.booleans()):
        body = "_".join(body)
    return sign + "0" * draw(st.integers(0, 2)) + body


@st.composite
def edge_list_texts(draw, plain=True):
    """Valid edge-list text: blank lines, space and tab separators, LF, CRLF
    or CR line ends."""
    blank = st.text(" \t", max_size=2)
    lines = []
    for _ in range(draw(st.integers(0, 8))):
        if draw(st.integers(0, 4)) == 0:
            lines.append(draw(blank))
        else:
            sep = draw(st.text(" \t", min_size=1, max_size=3))
            pair = digits(draw, plain) + sep + digits(draw, plain)
            lines.append(draw(blank) + pair + draw(blank))
    ends = [draw(st.sampled_from(["\n", "\r\n", "\r"])) for _ in lines]
    text = "".join(line + end for line, end in zip(lines, ends))
    return text[:-len(ends[-1])] if lines and draw(st.booleans()) else text


def expected_edges(text):
    """What ``load_edge_list`` gives for ``text``: the reference's edges as
    lists, or its error; an id it reads outside int64 is an error that names
    the first line holding one."""
    edges = reference_load_edge_list(text)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if any(not -2**63 <= int(token) < 2**63 for token in raw.split()):
            raise ValueError(f"edge list line {lineno}: node id outside int64 in {raw!r}")
    return [list(e) for e in edges]


def outcome(parse, text):
    try:
        return parse(text)
    except ValueError as exc:
        return f"ValueError: {exc}"


def loaded(text):
    """``load_edge_list(text)`` as lists, after checking its dtype and shape."""
    edges = load_edge_list(text)
    assert edges.dtype == np.int64 and edges.ndim == 2 and edges.shape[1] == 2
    return edges.tolist()


@given(edge_list_texts())
def test_load_edge_list_reads_plain_text_in_bulk_as_the_line_loop_does(text):
    ids = abm_mod._plain_node_ids(text)
    assert ids is not None
    assert ids.tolist() == [i for edge in expected_edges(text) for i in edge]
    assert loaded(text) == expected_edges(text)


@given(edge_list_texts(plain=False))
@example("1_0 +2_3\n")
@example("99999999999999999999 1\n")
@example("999999999999999999 -99999999999999999\n")
@example("\u0661 2\n3\u00a04\x0b5 6\n")
@example(" \x0b\n\u00a0")  # blank, but not plain: no edges from the line loop
def test_load_edge_list_reads_any_valid_text_as_the_line_loop_does(text):
    assert outcome(loaded, text) == outcome(expected_edges, text)


@given(
    text=edge_list_texts(),
    bad=st.one_of(
        st.text("0123456789+-_ \t\nx.\u0661\u00a0\x0b\x0c", min_size=1, max_size=12),
        st.sampled_from(["7", "12", "1+2", "1 2 3", "1 2 3 4", "7\n8", "1 2 3\n4", "+ 1",
                         "1+ 2", "1+2 3", "1 2-3", "--1 2", "1.5 2", "1 x"]),
    ),
    where=st.integers(0, 9),
)
@example(text="0 1\n", bad="7\n8", where=1)
@example(text="0 1\n", bad="12", where=1)
@example(text="0 1\n", bad="1+2", where=1)
@example(text="0 1\n", bad="1 2 3\n4", where=0)
@example(text="0 1\n", bad="1+2 3", where=1)
@example(text="0 1\n", bad="1 2 3 4", where=1)
def test_load_edge_list_fails_as_the_line_loop_does(text, bad, where):
    # one bad line in valid text: the bulk parse gives way to the line loop,
    # whose error names the line, or reads the text exactly as it does
    lines = text.splitlines(keepends=True)
    lines.insert(min(where, len(lines)), "\n" + bad + "\n")
    text = "".join(lines)
    assert outcome(loaded, text) == outcome(expected_edges, text)


def test_imported_compile_builds_sorted_neighbors():
    edges = ((0, 2), (1, 2), (0, 1), (3, 2))
    adj = Imported(edges, 4)
    for i in range(4):
        expected = sorted({v for u, v in edges if u == i} | {u for u, v in edges if v == i})
        assert adj.indices[adj.indptr[i]:adj.indptr[i + 1]].tolist() == expected
        assert adj.degree[i] == len(expected)


@given(pop=populations(), data=st.data())
def test_imported_graphs_are_equal_when_their_edges_are(pop, data):
    # equality is structural: the edges may come in any order and either
    # orientation, as pairs or as the array load_edge_list returns; moving
    # one edge makes another graph, and no edge list is kept
    if not isinstance(pop.topology, Imported):
        return
    graph, n = pop.topology, pop.n
    edges = [(u, v) for u in range(n) for v in graph.indices[graph.indptr[u]:graph.indptr[u + 1]]
             if u < v]
    shuffled = [(v, u) if data.draw(st.booleans()) else (u, v)
                for u, v in data.draw(st.permutations(edges))]
    assert Imported(np.array(shuffled, dtype=np.int64), n) == graph
    assert Imported(tuple(reversed(shuffled)), n) == graph
    assert vars(graph).keys() == {"n", "degree", "indptr", "indices", "blocks", "base"}
    missing = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in edges]
    if missing:  # move one edge onto a pair that had none, keeping every node linked
        moved = data.draw(st.sampled_from(missing))
        for i in range(len(edges)):
            rest = edges[:i] + edges[i + 1:] + [moved]
            if {x for e in rest for x in e} == set(range(n)):
                assert Imported(rest, n) != graph
                break


@pytest.mark.parametrize("edges, n, match", [
    (((0, 1), (1, 0)), 2, r"duplicate edge \(0, 1\)"),
    (((0, 1), (2, 2)), 3, "self-loop at node 2"),
    (((0, 1), (1, 5)), 3, "node 5"),
    (((0, 1), (-1, 1)), 3, "node -1"),
    (((0, 1),), 3, "node 2 has no neighbors"),
])
def test_imported_compile_names_the_bad_node(edges, n, match):
    with pytest.raises(ValueError, match=match):
        Imported(edges, n)


def test_config_rejects_a_graph_built_for_another_n():
    ring = tuple((i, (i + 1) % 12) for i in range(12))
    with pytest.raises(ValueError, match=r"12 nodes, not n=20"):
        AbmConfig(n=20, x0=0.5, game=COORDINATION, topology=Imported(ring, 12), rounds=1)
    cfg = AbmConfig(n=12, x0=0.5, game=COORDINATION, topology=Imported(ring, 12), rounds=1)
    with pytest.raises(ValueError, match=r"12 nodes, not n=20"):
        run(replace(cfg, n=20))


@given(st.integers(1, 20))
def test_ring_lattice_offsets_match_the_per_round_oracle(half):
    offsets = RingLattice(2 * half).offsets
    assert offsets.dtype == np.int64
    assert np.array_equal(offsets, _ring_offsets(2 * half))


@pytest.mark.parametrize("k", [3, 0, -2])
def test_ring_lattice_checks_its_degree_when_built(k):
    with pytest.raises(ValueError, match="even and >= 2"):
        RingLattice(k)


@pytest.mark.parametrize("k", [abm_mod.MAX_AGENTS, 2 ** 62])
def test_a_ring_lattice_refuses_a_degree_no_run_can_have(k):
    # refused before its k offsets are built
    with pytest.raises(ValueError, match=f"k={k:,} must be < MAX_AGENTS=10,000,000"):
        RingLattice(k)


def test_a_ring_degree_is_checked_against_n():
    abm_mod.check_ring(4, 5)
    with pytest.raises(ValueError, match="ring lattice degree k=4 must be < n=4"):
        abm_mod.check_ring(4, 4)

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
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
        offsets = abm_mod._ring_offsets(topo.k)
        total = 0.0
        for o in offsets:
            total += reference_game_payoff(game, mine, bool(strat[(agent + int(o)) % n]))
        return total / topo.k
    adj = topo.adjacency
    nbrs = adj.indices[adj.indptr[agent]:adj.indptr[agent + 1]]
    total = 0.0
    for j in nbrs:
        total += reference_game_payoff(game, mine, bool(strat[int(j)]))
    return total / nbrs.size


def reference_adoption(update, payoff_gap, payoff_span):
    """The scalar ``adoption_probability`` that the array version replaced."""
    if isinstance(update, ProportionalImitation):
        if payoff_span <= 0.0:
            return 0.0
        return max(0.0, payoff_gap / payoff_span)
    z = min(700.0, max(-700.0, update.beta * payoff_gap))
    return 1.0 / (1.0 + math.exp(-z))


entries = st.floats(-1e3, 1e3, allow_nan=False)
games = st.builds(GameMatrix, entries, entries, entries, entries)


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
        run(cfg, s_c, s_d)
    assert calls == []
    run(cfg)
    assert len(calls) == 5


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
    assert edges == ((0, 1), (1, 2), (2, 3))


def test_load_edge_list_rejects_duplicates():
    with pytest.raises(ValueError, match="duplicate"):
        load_edge_list("0 1\n1 0\n")


def test_load_edge_list_rejects_self_loops_and_garbage():
    with pytest.raises(ValueError, match="self-loop"):
        load_edge_list("3 3\n")
    with pytest.raises(ValueError, match="line 2"):
        load_edge_list("0 1\n0 one\n")
    with pytest.raises(ValueError, match="expected"):
        load_edge_list("0 1 2\n")


def test_imported_compile_builds_sorted_neighbors():
    edges = ((0, 2), (1, 2), (0, 1), (3, 2))
    compiled = Imported(edges, 4)
    adj = compiled.adjacency
    for i in range(4):
        expected = sorted({v for u, v in edges if u == i} | {u for u, v in edges if v == i})
        assert adj.indices[adj.indptr[i]:adj.indptr[i + 1]].tolist() == expected
        assert adj.degree[i] == len(expected)
    assert compiled == Imported(edges, 4)  # compiled arrays take no part in equality


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
    cfg = AbmConfig(n=20, x0=0.5, game=COORDINATION, topology=Imported(ring, 12), rounds=1)
    with pytest.raises(ValueError, match=r"12 nodes, not n=20"):
        cfg.validate()
    with pytest.raises(ValueError, match=r"12 nodes, not n=20"):
        run(cfg)

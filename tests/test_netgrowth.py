import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from attractorlab import netgrowth
from attractorlab.netgrowth import (
    COST_LOG2_TOL,
    MAX_BOOST,
    MAX_NODES,
    MODE_URN,
    GrowthConfig,
    GrowthTrace,
    estimate_lockin,
    _camp_weight,
    _final_shares,
    _generators,
    _lockin_label,
    grow,
    grow_replicates,
    intervention_cost,
)
from attractorlab.rng import make_generator, mix64


def final_shares(config, replicates):
    return np.array(
        [grow(replace(config, rng_seed=mix64(config.rng_seed, i))).shares[-1]
         for i in range(replicates)]
    )


# ---------------------------------------------------------------------------
# Growth
# ---------------------------------------------------------------------------

def test_grow_validates_config():
    with pytest.raises(ValueError):
        grow(GrowthConfig(n_nodes=0))
    with pytest.raises(ValueError):
        grow(GrowthConfig(n_nodes=5, seed_agi=0))
    with pytest.raises(ValueError):
        grow(GrowthConfig(n_nodes=5, mode="nope"))
    with pytest.raises(ValueError):
        grow(GrowthConfig(n_nodes=5, tau=0.5))


@pytest.mark.parametrize("field, value, unit", [
    ("n_nodes", MAX_NODES + 1, "arrivals"), ("n_nodes", 10 ** 12, "arrivals"),
    # past the limit a camp weight may pass 2**53, where float64 rounds it and grow
    # and _step part ways; seeds of 10**20 made grow's shares NaN
    ("seed_agi", MAX_NODES + 1, "seed nodes"), ("seed_agi", 10 ** 20, "seed nodes"),
    ("seed_dci", 2 ** 53 + 1, "seed nodes"), ("m", MAX_NODES + 1, "edges per arrival"),
])
def test_sizes_are_checked_when_the_config_is_built(field, value, unit):
    with pytest.raises(ValueError, match=f"{field}={value:,} is above the limit of 10,000,000 {unit}"):
        GrowthConfig(**{"n_nodes": 10, field: value})
    assert getattr(GrowthConfig(**{"n_nodes": 10, field: MAX_NODES}), field) == MAX_NODES


def test_rng_seed_is_checked_as_a_64_bit_integer():
    # a seed past 64 bits would be masked to another seed's streams; a float
    # failed inside make_generator at the first draw, and True ran seed 1's streams
    assert GrowthConfig(n_nodes=50, rng_seed=2 ** 64 - 1).rng_seed == 2 ** 64 - 1
    for seed in (2 ** 64, 2 ** 64 + 3, -1, 1.5, 1.0, True, "1", None):
        with pytest.raises(ValueError, match="rng_seed must be a non-negative 64-bit integer"):
            GrowthConfig(n_nodes=50, rng_seed=seed)


def test_grow_deterministic():
    config = GrowthConfig(n_nodes=300, seed_agi=2, seed_dci=1, rng_seed=99)
    a, b = grow(config), grow(config)
    assert np.array_equal(a.shares, b.shares)
    assert a.locked_in == b.locked_in


def test_grow_first_arrival_symmetric():
    # seeds (1, 1): the first arrival joins AGI iff its uniform < 1/2
    joined_agi = 0
    for i in range(400):
        trace = grow(GrowthConfig(n_nodes=1, rng_seed=mix64(3, i)))
        joined_agi += trace.shares[0] > 0.5
    assert joined_agi / 400 == pytest.approx(0.5, abs=0.07)


def test_grow_share_bounds_and_length():
    trace = grow(GrowthConfig(n_nodes=250, seed_agi=3, seed_dci=2, rng_seed=1))
    assert len(trace.shares) == 250
    assert np.all((trace.shares >= 0.0) & (trace.shares <= 1.0))


def test_urn_martingale_mean_share():
    config = GrowthConfig(n_nodes=600, seed_agi=2, seed_dci=1, rng_seed=5)
    finals = final_shares(config, 400)
    assert finals.mean() == pytest.approx(2.0 / 3.0, abs=0.03)


def test_urn_martingale_holds_mid_trace():
    config = GrowthConfig(n_nodes=200, seed_agi=1, seed_dci=3, rng_seed=8)
    mids = np.array(
        [grow(replace(config, rng_seed=mix64(8, i))).shares[99] for i in range(400)]
    )
    assert mids.mean() == pytest.approx(0.25, abs=0.04)


def test_degree_pa_seed_advantage():
    def p_monopoly(seed_agi):
        config = GrowthConfig(
            n_nodes=800, m=2, seed_agi=seed_agi, seed_dci=1,
            mode="degree_pa", rng_seed=21,
        )
        return float(np.mean(final_shares(config, 200) > 0.9))

    assert p_monopoly(4) > p_monopoly(1)


def test_locked_in_flag():
    trace = grow(GrowthConfig(n_nodes=50, seed_agi=40, seed_dci=1, tau=0.6, rng_seed=2))
    assert trace.locked_in == "agi"
    trace = grow(GrowthConfig(n_nodes=50, seed_agi=1, seed_dci=40, tau=0.6, rng_seed=2))
    assert trace.locked_in == "dci"
    trace = grow(GrowthConfig(n_nodes=10, seed_agi=5, seed_dci=5, tau=0.99, rng_seed=2))
    assert trace.locked_in is None


# ---------------------------------------------------------------------------
# Kernel oracle: the one growth loop against the two per-mode loops it replaced
# ---------------------------------------------------------------------------

def _grow_urn(config: GrowthConfig, rng: np.random.Generator) -> GrowthTrace:
    n = config.n_nodes
    boost = config.dci_boost
    us = rng.random(n).tolist()
    a = float(config.seed_agi)
    d = float(config.seed_dci)
    agi_counts = []
    for u in us:
        if u * (a + boost * d) < a:
            a += 1.0
        else:
            d += 1.0
        agi_counts.append(a)
    totals = config.seed_agi + config.seed_dci + np.arange(1, n + 1, dtype=float)
    shares = np.asarray(agi_counts) / totals
    return GrowthTrace(shares, _lockin_label(float(shares[-1]), config.tau))


def _grow_degree_pa(config: GrowthConfig, rng: np.random.Generator) -> GrowthTrace:
    n = config.n_nodes
    boost = config.dci_boost
    sa, sd = config.seed_agi, config.seed_dci
    us = rng.random(n).tolist()
    j_agi = j_dci = 0
    agi_counts = []
    for u in us:
        a = _camp_weight(config, sa, j_agi)
        d = _camp_weight(config, sd, j_dci)
        if u * (a + boost * d) < a:
            j_agi += 1
        else:
            j_dci += 1
        agi_counts.append(sa + j_agi)
    totals = sa + sd + np.arange(1, n + 1, dtype=float)
    shares = np.asarray(agi_counts, dtype=float) / totals
    return GrowthTrace(shares, _lockin_label(float(shares[-1]), config.tau))


def reference_grow(config: GrowthConfig) -> GrowthTrace:
    """``grow`` before the merge: one loop per mode, the degree_pa loop
    looking up both camp weights on every arrival."""
    config.validate()
    rng = make_generator(config.rng_seed)
    if config.mode == MODE_URN:
        return _grow_urn(config, rng)
    return _grow_degree_pa(config, rng)


@settings(max_examples=150, deadline=None)
@given(
    mode=st.sampled_from(["urn", "degree_pa"]),
    m=st.integers(1, 3),
    seed_agi=st.sampled_from([1, 2, 3, 5]),
    seed_dci=st.sampled_from([1, 2, 4]),
    boost=st.sampled_from([0.0, 0.5, 1.0, 3.7]),
    n=st.integers(1, 300),
    rng_seed=st.integers(0, 2 ** 64 - 1),
    block_draws=st.sampled_from([1, 5, 2 ** 15]),
)
@example(mode="degree_pa", m=1, seed_agi=1, seed_dci=1, boost=1.0, n=300, rng_seed=3, block_draws=5)
@example(mode="degree_pa", m=2, seed_agi=1, seed_dci=2, boost=0.0, n=1, rng_seed=0, block_draws=1)
@example(mode="degree_pa", m=3, seed_agi=2, seed_dci=1, boost=0.0, n=40, rng_seed=5, block_draws=5)
@example(mode="urn", m=1, seed_agi=1, seed_dci=1, boost=0.0, n=1, rng_seed=0, block_draws=2 ** 15)
def test_grow_matches_the_per_mode_loops(mode, m, seed_agi, seed_dci, boost, n, rng_seed,
                                         block_draws):
    # bare one-node camps step by 2m - 1 on their first join and by 2m after it;
    # small draw blocks put block edges mid-run, where grow's uniforms must go on
    config = GrowthConfig(n_nodes=n, m=m, seed_agi=seed_agi, seed_dci=seed_dci, mode=mode,
                          dci_boost=boost, rng_seed=rng_seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(netgrowth, "_BLOCK_DRAWS", block_draws)
        got = grow(config)
    expected = reference_grow(config)
    assert got.shares.tobytes() == expected.shares.tobytes()
    assert got.locked_in == expected.locked_in


@pytest.mark.parametrize("mode", ["urn", "degree_pa"])
def test_grow_memory_is_its_flags_and_shares(mode):
    # one byte of join flags and the float64 shares and denominators per
    # arrival, plus a block of uniforms: about 17 bytes an arrival at 200k
    n = 200_000
    config = GrowthConfig(n_nodes=n, m=2, seed_agi=2, seed_dci=1, mode=mode, rng_seed=3)
    tracemalloc.start()
    try:
        trace = grow(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(trace.shares) == n
    assert peak < 24 * n, peak / n


# ---------------------------------------------------------------------------
# Replicate-batched final shares
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(
    mode=st.sampled_from(["urn", "degree_pa"]),
    m=st.integers(1, 3),
    seed_agi=st.integers(1, 4),
    seed_dci=st.integers(1, 4),
    boost=st.sampled_from([0.0, 1.0, 3.7, 1024.0]),
    boosts=st.lists(st.sampled_from([0.0, 0.5, 1.0, 1.3, 3.7, 2.0 ** 5.3125, 1024.0]),
                    min_size=1, max_size=5),
    n=st.integers(1, 60),
    replicates=st.integers(1, 7),
    block_draws=st.sampled_from([1, 5, 16, 2 ** 16]),
)
@example(mode="degree_pa", m=2, seed_agi=1, seed_dci=1, boost=1.0, boosts=[1.0, 1024.0], n=40,
         replicates=1, block_draws=16)
@example(mode="degree_pa", m=MAX_NODES, seed_agi=MAX_NODES, seed_dci=MAX_NODES - 1, boost=1.0,
         boosts=[1.0, 3.7], n=60, replicates=7, block_draws=16)  # the largest camp weights
def test_final_shares_match_grow_bytes(mode, m, seed_agi, seed_dci, boost, boosts, n,
                                       replicates, block_draws):
    # small draw blocks split the run mid-way: block = max(8, block_draws // replicates // 8 * 8)
    config = GrowthConfig(n_nodes=n, m=m, seed_agi=seed_agi, seed_dci=seed_dci, mode=mode,
                          dci_boost=boost, rng_seed=n * 31 + replicates)

    def streams():  # fresh per call, so each call draws from the streams' start
        return _generators(config, range(replicates))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(netgrowth, "_BLOCK_DRAWS", block_draws)
        batched = _final_shares(config, streams(), [boost])
        rows = _final_shares(config, streams(), boosts)
        singles = [_final_shares(config, streams(), [b]) for b in boosts]
    assert batched.shape == (1, replicates)
    assert batched[0].tobytes() == final_shares(config, replicates).tobytes()
    # every boost row steps against the same uniforms as its own one-boost call
    assert rows.shape == (len(boosts), replicates)
    assert [row.tobytes() for row in rows] == [single[0].tobytes() for single in singles]


@pytest.mark.parametrize("mode", ["urn", "degree_pa"])
def test_final_shares_match_grow_across_default_blocks(mode):
    # 7 replicates draw 2**15 // 7 // 8 * 8 = 4680 arrivals per block: five blocks, the last partial
    config = GrowthConfig(n_nodes=20_000, m=2, seed_agi=2, seed_dci=1, mode=mode,
                          dci_boost=1.3, rng_seed=41)
    batched = _final_shares(config, _generators(config, range(7)), [config.dci_boost])
    assert batched[0].tobytes() == final_shares(config, 7).tobytes()


def test_final_shares_urn_polya_limit():
    # urn(2, 1) final AGI shares follow Beta(2, 1) in the large-n limit
    config = GrowthConfig(n_nodes=2000, seed_agi=2, seed_dci=1, rng_seed=1)
    finals = _final_shares(config, _generators(config, range(500)), [config.dci_boost])[0]
    assert stats.kstest(finals, stats.beta(2, 1).cdf).pvalue > 0.01


# ---------------------------------------------------------------------------
# Replicate-batched traces
# ---------------------------------------------------------------------------

def assert_same_trace(got, expected):
    assert got.shares.tobytes() == expected.shares.tobytes()
    assert got.locked_in == expected.locked_in


@settings(max_examples=60, deadline=None)
@given(
    mode=st.sampled_from(["urn", "degree_pa"]),
    m=st.integers(1, 3),
    seed_agi=st.integers(1, 4),
    seed_dci=st.integers(1, 4),
    boost=st.sampled_from([0.0, 0.3, 1.0, 1.7, 1024.0]),
    n=st.integers(1, 70),
    first=st.integers(0, 5),
    replicates=st.integers(0, 8),
    chunk=st.integers(1, 4),
    block_draws=st.sampled_from([1, 20, 2 ** 15]),
)
@example(mode="degree_pa", m=3, seed_agi=1, seed_dci=1, boost=0.3, n=1, first=0, replicates=3,
         chunk=2, block_draws=1)
@example(mode="degree_pa", m=2, seed_agi=1, seed_dci=2, boost=1.7, n=21, first=2, replicates=7,
         chunk=3, block_draws=20)
def test_grow_replicates_match_grow(mode, m, seed_agi, seed_dci, boost, n, first, replicates,
                                    chunk, block_draws):
    # small chunks and draw blocks split the replicates and the arrivals mid-way
    config = GrowthConfig(n_nodes=n, m=m, seed_agi=seed_agi, seed_dci=seed_dci, mode=mode,
                          dci_boost=boost, rng_seed=n * 17 + replicates)
    indices = range(first, first + replicates)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(netgrowth, "_CHUNK_REPLICATES", chunk)
        mp.setattr(netgrowth, "_BLOCK_DRAWS", block_draws)
        mp.setattr(netgrowth, "_MIN_BATCH_REPLICATES", 0)  # every chunk goes through _step
        traces = list(grow_replicates(config, indices))
    assert len(traces) == replicates
    for i, trace in zip(indices, traces):
        assert_same_trace(trace, grow(replace(config, rng_seed=mix64(config.rng_seed, i))))


@pytest.mark.parametrize("mode", ["urn", "degree_pa"])
def test_grow_replicates_match_grow_across_default_blocks(mode):
    # 201 replicates make a full chunk, stepped, and a chunk of one, grown alone;
    # 2**15 // 200 // 8 * 8 = 160 arrivals per block, so 1003 arrivals end in a partial block of 43
    config = GrowthConfig(n_nodes=1003, m=2, seed_agi=2, seed_dci=1, mode=mode,
                          dci_boost=1.3, rng_seed=5)
    for i, trace in enumerate(grow_replicates(config, range(201))):
        assert_same_trace(trace, grow(replace(config, rng_seed=mix64(5, i))))


def test_grow_replicates_yields_before_the_next_chunk_steps(monkeypatch):
    # a trace is handed on as soon as its chunk is stepped, not after all chunks
    steps = []
    step = netgrowth._step
    monkeypatch.setattr(netgrowth, "_step", lambda *args: steps.append(len(args[1])) or step(*args))
    monkeypatch.setattr(netgrowth, "_CHUNK_REPLICATES", 3)
    monkeypatch.setattr(netgrowth, "_MIN_BATCH_REPLICATES", 0)
    traces = grow_replicates(GrowthConfig(n_nodes=10, rng_seed=1), range(7))
    next(traces)
    assert steps == [3]
    assert len(list(traces)) == 6 and steps == [3, 3, 1]


# ---------------------------------------------------------------------------
# Lock-in estimation
# ---------------------------------------------------------------------------

def test_estimate_lockin_tau_one_is_impossible():
    config = GrowthConfig(n_nodes=50, rng_seed=4)
    est = estimate_lockin(config, replicates=100, tau=1.0)
    assert est.p_agi_lockin == 0.0
    assert est.p_dci_lockin == 0.0


def test_estimate_lockin_uniform_tails():
    config = GrowthConfig(n_nodes=2000, rng_seed=12)
    est = estimate_lockin(config, replicates=800, tau=0.99)
    # urn(1,1) final shares are uniform in the limit: ~1% mass in each tail
    assert est.p_agi_lockin == pytest.approx(0.01, abs=0.012)
    assert est.p_dci_lockin == pytest.approx(0.01, abs=0.012)
    assert est.p_agi_lockin + est.p_dci_lockin <= 1.0
    assert est.ci_halfwidth >= 0.0


def test_estimate_lockin_validates():
    config = GrowthConfig(n_nodes=10, rng_seed=1)
    with pytest.raises(ValueError):
        estimate_lockin(config, replicates=0, tau=0.9)
    with pytest.raises(ValueError):
        estimate_lockin(config, replicates=10, tau=0.5)


def test_estimate_lockin_order_independent():
    # replicate streams derive from (seed, index), so a manual reversed
    # evaluation sees the same final shares
    config = GrowthConfig(n_nodes=150, rng_seed=33)
    forward = final_shares(config, 50)
    backward = np.array(
        [grow(replace(config, rng_seed=mix64(33, i))).shares[-1]
         for i in reversed(range(50))]
    )
    assert np.array_equal(forward, backward[::-1])


# ---------------------------------------------------------------------------
# Intervention cost
# ---------------------------------------------------------------------------

def test_intervention_cost_symmetric_needs_nothing():
    base = GrowthConfig(n_nodes=400, seed_agi=3, seed_dci=3, rng_seed=6)
    assert intervention_cost(base, 0.5, horizon=400, replicates=100) == 1.0


def test_intervention_cost_biased_needs_boost():
    base = GrowthConfig(n_nodes=600, seed_agi=10, seed_dci=1, rng_seed=6)
    boost = intervention_cost(base, 0.5, horizon=600, replicates=100)
    assert 1.0 < boost < 1024.0


def test_intervention_cost_monotone_in_seed_advantage():
    def cost(seed_agi):
        base = GrowthConfig(n_nodes=500, seed_agi=seed_agi, seed_dci=1, rng_seed=9)
        return intervention_cost(base, 0.5, horizon=500, replicates=80)

    costs = [cost(2), cost(8)]
    assert costs[0] <= costs[1]


def test_intervention_cost_unreachable_target_is_inf():
    # tau-like target of 0.999 at a tiny horizon cannot be met on average
    base = GrowthConfig(n_nodes=4, seed_agi=30, seed_dci=1, rng_seed=9)
    assert intervention_cost(base, 0.999, horizon=4, replicates=40) == math.inf


def reference_intervention_cost(base, target_dci_share, horizon, replicates):
    """``intervention_cost`` before its batched passes: one one-boost
    ``_final_shares`` call per bisection probe, on freshly built streams,
    looked up on the module so a spy sees it."""
    probe = replace(base, n_nodes=horizon)

    def mean_dci(boost):
        finals = netgrowth._final_shares(probe, _generators(probe, range(replicates)), [boost])
        return float(np.mean(1.0 - finals[0]))

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


@settings(max_examples=80, deadline=None)
@given(
    mode=st.sampled_from(["urn", "degree_pa"]),
    m=st.integers(1, 3),
    seed_agi=st.sampled_from([1, 2, 4, 8, 30]),
    seed_dci=st.sampled_from([1, 2, 3]),
    horizon=st.integers(1, 80),
    extra_nodes=st.integers(0, 5),
    replicates=st.integers(1, 6),
    target=st.one_of(st.sampled_from([0.2, 0.5, 0.9, 0.999]), st.floats(0.01, 0.99)),
    rng_seed=st.integers(0, 2 ** 64 - 1),
)
@example(mode="urn", m=1, seed_agi=3, seed_dci=3, horizon=40, extra_nodes=0, replicates=5,
         target=0.3, rng_seed=6)  # boost 1 already reaches the target
@example(mode="urn", m=1, seed_agi=30, seed_dci=1, horizon=4, extra_nodes=0, replicates=4,
         target=0.999, rng_seed=9)  # MAX_BOOST is not enough
@example(mode="degree_pa", m=2, seed_agi=8, seed_dci=1, horizon=80, extra_nodes=3,
         replicates=6, target=0.5, rng_seed=1)
@example(mode="urn", m=1, seed_agi=2, seed_dci=1, horizon=10, extra_nodes=0, replicates=2,
         target=0.5, rng_seed=1)  # two midpoints' means equal the target exactly
def test_intervention_cost_matches_the_bisection(mode, m, seed_agi, seed_dci, horizon,
                                                  extra_nodes, replicates, target, rng_seed):
    base = GrowthConfig(n_nodes=horizon + extra_nodes, m=m, seed_agi=seed_agi,
                        seed_dci=seed_dci, mode=mode, rng_seed=rng_seed)
    got = intervention_cost(base, target, horizon=horizon, replicates=replicates)
    assert repr(got) == repr(reference_intervention_cost(base, target, horizon, replicates))


def test_intervention_cost_makes_three_kernel_calls(monkeypatch):
    calls = []
    kernel = netgrowth._final_shares
    monkeypatch.setattr(netgrowth, "_final_shares",
                        lambda *args: calls.append(args) or kernel(*args))

    def count(run, *args):
        calls.clear()
        return run(*args), len(calls)

    # a cost strictly inside (1, MAX_BOOST) bisects all eight levels
    biased = GrowthConfig(n_nodes=300, seed_agi=6, seed_dci=1, rng_seed=2)
    boost, passes = count(intervention_cost, biased, 0.5, 300, 30)
    assert 1.0 < boost < MAX_BOOST and passes == 3
    assert [len(args[2]) for args in calls] == [5, 7, 7]
    assert count(reference_intervention_cost, biased, 0.5, 300, 30) == (boost, 10)
    # early exits at boost 1 and at +inf take the first pass only
    symmetric = GrowthConfig(n_nodes=200, seed_agi=3, seed_dci=3, rng_seed=6)
    assert count(intervention_cost, symmetric, 0.3, 200, 20) == (1.0, 1)
    hopeless = GrowthConfig(n_nodes=4, seed_agi=30, seed_dci=1, rng_seed=9)
    assert count(intervention_cost, hopeless, 0.999, 4, 10) == (math.inf, 1)


def test_intervention_cost_builds_each_replicate_generator_once(monkeypatch):
    # every pass of a search steps the same streams, rewound between passes, not rebuilt
    seeds = []
    make = netgrowth.make_generator
    monkeypatch.setattr(netgrowth, "make_generator", lambda seed: seeds.append(seed) or make(seed))
    for base, target, horizon, replicates, cost in (
        (GrowthConfig(n_nodes=300, seed_agi=6, seed_dci=1, rng_seed=2), 0.5, 300, 30, None),
        (GrowthConfig(n_nodes=200, seed_agi=3, seed_dci=3, rng_seed=6), 0.3, 200, 20, 1.0),
        (GrowthConfig(n_nodes=4, seed_agi=30, seed_dci=1, rng_seed=9), 0.999, 4, 10, math.inf),
    ):
        seeds.clear()
        boost = intervention_cost(base, target, horizon, replicates)
        assert boost == cost if cost is not None else 1.0 < boost < MAX_BOOST
        assert seeds == [mix64(base.rng_seed, i) for i in range(replicates)]


def test_intervention_cost_validates():
    base = GrowthConfig(n_nodes=10, rng_seed=1)
    with pytest.raises(ValueError):
        intervention_cost(base, 0.0, horizon=10)
    with pytest.raises(ValueError):
        intervention_cost(base, 0.5, horizon=11)


@settings(max_examples=10, deadline=None)
@given(boost_pair=st.sampled_from([(1.0, 2.0), (1.0, 4.0), (2.0, 8.0), (1.0, 16.0)]))
def test_boost_monotonicity(boost_pair):
    lo, hi = boost_pair
    base = GrowthConfig(n_nodes=300, seed_agi=3, seed_dci=1, rng_seed=14)
    mean_lo = np.mean(1.0 - final_shares(replace(base, dci_boost=lo), 120))
    mean_hi = np.mean(1.0 - final_shares(replace(base, dci_boost=hi), 120))
    assert mean_hi >= mean_lo - 0.02

"""Acceptance suite: one test per criterion, each printing a pass/fail line
and holding its stated tolerance and runtime budget.

Statistical criteria run on fixed master seeds, so every assertion here is
deterministic.
"""

import json
import math
import time
from collections import deque
from contextlib import contextmanager
from pathlib import Path

import numpy as np
from scipy.stats import kstest

from attractorlab.abm import AbmConfig, GameMatrix, basin_experiment, mean_field_time_step, run
from attractorlab.cogmodel import (
    ConceptGraph,
    Edge,
    Node,
    ProblemSpec,
    lift,
    new_mind,
    project,
    reason_s1,
    reason_s2,
    recall,
    remove,
    same_structure,
    stability_score,
    store,
)
from attractorlab.dynamics import (
    OdeSpec,
    PayoffSpec,
    ReplicatorRhs,
    closed_form_logistic,
    hysteresis_loop,
    integrate,
    sweep_bifurcation,
)
from attractorlab.harness import load_config, run_scenario
from attractorlab.netgrowth import GrowthConfig, _final_shares, intervention_cost
from attractorlab.rng import make_generator, mix64

FOLD = 2.0 / (3.0 * math.sqrt(3.0))  # closed-form fold location for theta=1


@contextmanager
def criterion(num, description, limit_s):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {num:2d} FAIL: {description}")
        raise
    elapsed = time.perf_counter() - t0
    print(f"criterion {num:2d} PASS ({elapsed:6.2f}s < {limit_s:.0f}s): {description}")
    assert elapsed < limit_s, f"criterion {num} exceeded its runtime budget"


def urn_final_shares(config, replicates):
    # replicate i grows from mix64(config.rng_seed, i); the batched kernel
    # gives the same bytes as grow(...).shares[-1] per replicate
    return _final_shares(config, replicates)


def test_criterion_01_replicator_integrator_vs_closed_form():
    with criterion(1, "replicator RK4 vs closed-form logistic", 1.0):
        payoffs = PayoffSpec.constant(2.0, 1.0)  # P_C - P_D = 1

        def max_err(dt):
            traj = integrate(OdeSpec(ReplicatorRhs(payoffs), x0=0.1, dt=dt, t_end=10.0))
            return max(
                abs(x - closed_form_logistic(0.1, 1.0, t))
                for t, x in zip(traj.times, traj.states)
            )

        assert max_err(1e-3) < 1e-6
        # convergence order is measured where truncation dominates: at
        # dt=1e-3 the error already sits at the ~1e-15 rounding floor
        assert max_err(0.05) / max_err(0.025) >= 12.0


def test_criterion_02_cusp_bifurcation_geometry():
    with criterion(2, "fold geometry of the bistable sweep", 10.0):
        step = 1e-3
        sweep = sweep_bifurcation(1.0, -0.6, 0.6, step)
        two = [lam for lam, rep in sweep if rep.stable_count() == 2]
        assert abs(min(two) - (-FOLD)) <= step
        assert abs(max(two) - FOLD) <= step
        assert all(
            rep.stable_count() == 1
            for lam, rep in sweep
            if lam < min(two) or lam > max(two)
        )
        mono = sweep_bifurcation(-1.0, -0.6, 0.6, 1e-3)
        assert all(rep.stable_count() == 1 for _, rep in mono)


def test_criterion_03_hysteresis_loop():
    with criterion(3, "quasi-static hysteresis jumps and loop area", 30.0):
        loop = hysteresis_loop(1.0, -0.6, 0.6, 1e-3)
        assert len(loop.jumps_up) == 1
        assert len(loop.jumps_down) == 1
        assert abs(loop.jumps_up[0] - FOLD) <= 0.005
        assert abs(loop.jumps_down[0] - (-FOLD)) <= 0.005
        assert loop.loop_area > 0.0
        flat = hysteresis_loop(-1.0, -0.6, 0.6, 1e-3)
        assert flat.jumps_up == () and flat.jumps_down == ()
        assert flat.loop_area < 1e-6


def test_criterion_04_polya_urn_martingale():
    with criterion(4, "urn martingale mean and uniform limit law", 60.0):
        biased = GrowthConfig(n_nodes=10_000, seed_agi=2, seed_dci=1, rng_seed=42)
        finals = urn_final_shares(biased, 2000)
        assert abs(finals.mean() - 2.0 / 3.0) <= 0.02

        symmetric = GrowthConfig(n_nodes=10_000, seed_agi=1, seed_dci=1, rng_seed=7)
        sample = urn_final_shares(symmetric, 2000)
        assert kstest(sample, "uniform").pvalue > 0.01


def test_criterion_05_monopoly_monotonicity():
    with criterion(5, "degree-mode monopoly odds rise with seed advantage", 120.0):
        def p_monopoly(seed_agi):
            config = GrowthConfig(
                n_nodes=5000, m=2, seed_agi=seed_agi, seed_dci=1,
                mode="degree_pa", rng_seed=11,
            )
            hits = np.mean(urn_final_shares(config, 500) > 0.9)
            half = 1.96 * math.sqrt(hits * (1 - hits) / 500)
            return float(hits), half

        estimates = [p_monopoly(s) for s in (1, 2, 4)]
        for (p_lo, h_lo), (p_hi, h_hi) in zip(estimates, estimates[1:]):
            # non-decreasing, violations tolerated only inside overlapping CIs
            assert p_hi >= p_lo or (p_hi + h_hi) >= (p_lo - h_lo)


def test_criterion_06_abm_mean_field_equivalence():
    with criterion(6, "well-mixed imitation tracks the replicator flow", 60.0):
        game = GameMatrix(r=1, sg=1, t=2, pu=2)  # constant P_C=1, P_D=2
        h = mean_field_time_step(game)
        rounds, x0 = 10, 0.1
        trajs = [
            run(AbmConfig(n=10_000, x0=x0, game=game, rounds=rounds,
                          rng_seed=mix64(123, s))).coop_fraction
            for s in range(20)
        ]
        mean_traj = np.mean(trajs, axis=0)

        ode = integrate(OdeSpec(
            ReplicatorRhs(PayoffSpec.constant(1.0, 2.0)),
            x0=x0, dt=1e-3, t_end=rounds * h,
        ))
        per_round = int(round(h / 1e-3))
        ode_at_rounds = ode.states[::per_round]
        sup = float(np.max(np.abs(mean_traj - ode_at_rounds)))
        assert sup < 0.05


def test_criterion_07_basin_path_dependence():
    with criterion(7, "coordination-game basins flip across the interior point", 60.0):
        template = AbmConfig(
            n=10_000, x0=0.5, game=GameMatrix(r=1, sg=0, t=0, pu=1),
            rounds=30, noise=0.0, rng_seed=99,
        )
        counts = basin_experiment(template, [0.45, 0.55], replicates=50)
        assert counts[0.45]["agi_first"] >= 45
        assert counts[0.55]["dci_first"] >= 45


def test_criterion_08_intervention_cost_hysteresis_analogue():
    with criterion(8, "attachment-boost cost exceeds 1 and rises with bias", 120.0):
        def cost(seed_agi):
            base = GrowthConfig(n_nodes=2000, seed_agi=seed_agi, seed_dci=1, rng_seed=5)
            return intervention_cost(base, 0.5, horizon=2000)

        assert cost(10) > 1.0
        series = [cost(s) for s in (2, 4, 8)]
        assert series == sorted(series)


def _random_graph(rng, n, p):
    ids = [f"v{i:02d}" for i in range(n)]
    edges = [
        (ids[i], ids[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < p
    ]
    g = ConceptGraph.empty()
    for nid in ids:
        g, _ = store(g, Node(payload=f"p_{nid}", id=nid))
    for a, b in edges:
        g, _ = store(g, Edge(1, frozenset((a, b))))
    return g, ids, edges


def _bfs(ids, edges, sources):
    adj = {n: set() for n in ids}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    dist = {s: 0 for s in sources}
    queue = deque(sources)
    while queue:
        node = queue.popleft()
        for nbr in adj[node]:
            if nbr not in dist:
                dist[nbr] = dist[node] + 1
                queue.append(nbr)
    return dist


def test_criterion_09_cogmodel_invariant_suite():
    with criterion(9, "concept-graph invariants over a generated corpus", 30.0):
        rng = make_generator(2024)
        cases = [(int(rng.integers(1, 13)), float(rng.uniform(0.05, 0.9)))
                 for _ in range(100)]
        cases += [(1, 0.0), (2, 1.0), (12, 1.0), (12, 0.0), (6, 0.3)]

        for n, p in cases:
            g, ids, edges = _random_graph(rng, n, p)

            # store/remove and recall round trips
            g2, nid = store(g, Node(payload="fresh"))
            assert recall(g2, nid)[0].payload == "fresh"
            g3, eid = store(g2, Edge(1, frozenset((nid, ids[0])))) if ids else (g2, None)
            if eid is not None:
                g3 = remove(g3, eid)
            assert same_structure(remove(g3, nid), g)

            # project(lift(.)) identity at orders 2 and 3
            singleton = [[e] for e in sorted(g.layers[0])]
            order2 = lift(g, singleton)
            assert same_structure(project(order2), g)
            order3 = lift(order2, [[e] for e in sorted(order2.layers[1])])
            assert same_structure(project(project(order3)), g)

            # spreading activation at decay 1 equals the BFS ball
            budget = int(rng.integers(0, 5))
            cue = ids[0]
            ball = {v for v, d in _bfs(ids, edges, [cue]).items() if d <= budget}
            activation = reason_s1(g, cue, budget=budget, decay=1.0)
            assert set(activation) == ball
            assert all(v == 1.0 for v in activation.values())

            # deliberate search matches brute-force shortest path length
            goal = ids[-1]
            path = reason_s2(g, ProblemSpec(goal, frozenset([cue]), max(1, n)))
            oracle = _bfs(ids, edges, [cue])
            if goal == cue:
                assert path == ()
            elif goal not in oracle:
                assert path is None
            else:
                assert path is not None and len(path) - 1 == oracle[goal]

            # stability score bounds
            score = stability_score(new_mind(g))
            assert 0.0 <= score <= 1.0


DETERMINISM_DOCS = {
    "replicator": {"params": {"x0": 0.2, "t_end": 1.0, "p_c": 2, "p_d": 1}},
    "bifurcation": {
        "replicates": 1,
        "params": {"theta": 1.0, "lambda_lo": -0.5, "lambda_hi": 0.5, "step": 0.01,
                   "grid_n": 512},
    },
    "hysteresis": {
        "replicates": 1,
        "params": {"theta": 1.0, "lambda_lo": -0.5, "lambda_hi": 0.5, "step": 0.01},
    },
    "netgrowth": {
        "replicates": 5,
        "params": {"n_nodes": 2000, "seed_agi": 2, "seed_dci": 1},
    },
    "abm": {
        "replicates": 3,
        "params": {"n": 500, "x0": 0.4, "rounds": 20, "noise": 0.01,
                   "game": {"r": 1, "sg": 0, "t": 0, "pu": 1}},
    },
    "basin": {
        "replicates": 3,
        "params": {"n": 500, "x0_list": [0.3, 0.7], "rounds": 20,
                   "game": {"r": 1, "sg": 0, "t": 0, "pu": 1}},
    },
}


def test_criterion_10_determinism_all_kinds(tmp_path):
    with criterion(10, "byte-identical reruns for every scenario kind", 60.0):
        for kind, overrides in DETERMINISM_DOCS.items():
            outputs = []
            for attempt in ("first", "second"):
                out = str(tmp_path / f"{kind}_{attempt}")
                doc = {
                    "kind": kind,
                    "master_seed": 1234,
                    "replicates": overrides.get("replicates", 2),
                    "output_dir": out,
                    "params": overrides["params"],
                }
                _, _, manifest = run_scenario(load_config(json.dumps(doc)))
                data = {
                    name: Path(out, name).read_bytes()
                    for name in manifest.files
                    if name != "manifest.json"
                }
                outputs.append(data)
            assert outputs[0].keys() == outputs[1].keys()
            assert outputs[0] == outputs[1], f"{kind} reruns differ"

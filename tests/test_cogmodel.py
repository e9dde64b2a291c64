from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attractorlab.cogmodel import (
    AgentMind,
    ConceptGraph,
    DanglingMemberError,
    DuplicateIdError,
    Edge,
    EnvSignal,
    FitnessTriple,
    GraphError,
    Node,
    OverlapError,
    ProblemSpec,
    UnknownIdError,
    adapt,
    bridge,
    connectivity_ratio,
    fitness_eval,
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
    sustainable,
    validate_graph,
)


def build_graph(node_ids, edge_pairs, payloads=None):
    g = ConceptGraph.empty()
    payloads = payloads or {}
    for nid in node_ids:
        g, _ = store(g, Node(payload=payloads.get(nid), id=nid))
    for a, b in edge_pairs:
        g, _ = store(g, Edge(1, frozenset((a, b))))
    return g


def path_graph(ids):
    return build_graph(ids, list(zip(ids, ids[1:])))


def bfs_distances(node_ids, edge_pairs, sources):
    """Independent breadth-first oracle over an explicit adjacency map."""
    adj = {n: set() for n in node_ids}
    for a, b in edge_pairs:
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


# ---------------------------------------------------------------------------
# Storage, recall, removal
# ---------------------------------------------------------------------------

def test_store_node_into_empty_graph():
    g, nid = store(ConceptGraph.empty(), Node(id="a"))
    assert set(g.nodes) == {"a"}
    assert nid == "a"


def test_store_assigns_fresh_ids():
    g, n0 = store(ConceptGraph.empty(), Node())
    g, n1 = store(g, Node())
    assert n0 != n1
    assert n0 in g.nodes and n1 in g.nodes


def test_store_edge_requires_members():
    g = build_graph(["a"], [])
    with pytest.raises(DanglingMemberError):
        store(g, Edge(1, frozenset(("a", "b"))))


def test_store_duplicate_id_rejected():
    g = build_graph(["a"], [])
    with pytest.raises(DuplicateIdError):
        store(g, Node(id="a"))


def test_store_then_remove_round_trip():
    g = build_graph(["a", "b"], [("a", "b")])
    g2, nid = store(g, Node(id="z"))
    assert same_structure(remove(g2, nid), g)
    g3, eid = store(g2, Edge(1, frozenset(("a", "z"))))
    assert same_structure(remove(g3, eid), g2)


def test_remove_referenced_item_rejected():
    g = build_graph(["a", "b"], [("a", "b")])
    with pytest.raises(GraphError):
        remove(g, "a")
    lifted = lift(g, [["e1_0"]])
    with pytest.raises(GraphError):
        remove(lifted, "e1_0")
    with pytest.raises(UnknownIdError):
        remove(g, "nope")


def test_recall_round_trip():
    g, nid = store(ConceptGraph.empty(), Node(payload="ant"))
    hits = recall(g, nid)
    assert hits == [Node(payload="ant", id=nid)]


def test_recall_empty_graph():
    assert recall(ConceptGraph.empty(), "anything") == []


def test_recall_pattern_in_id_order():
    g = build_graph(["n1", "n2", "n3"], [], payloads={"n1": "ant", "n2": "bat", "n3": "axe"})
    hits = recall(g, "a*")
    assert [h.payload for h in hits] == ["ant", "axe"]
    assert [h.id for h in hits] == ["n1", "n3"]


def test_recall_edge_by_id():
    g = build_graph(["a", "b"], [("a", "b")])
    hits = recall(g, "e1_0")
    assert hits == [Edge(order=1, members=frozenset(("a", "b")), id="e1_0")]


# ---------------------------------------------------------------------------
# Reasoning
# ---------------------------------------------------------------------------

def test_reason_s1_single_path():
    g = path_graph(["a", "b", "c"])
    assert reason_s1(g, "a", budget=2, decay=0.5) == {"a": 1.0, "b": 0.5, "c": 0.25}


def test_reason_s1_budget_zero():
    g = path_graph(["a", "b"])
    assert reason_s1(g, "a", budget=0, decay=0.7) == {"a": 1.0}


def test_reason_s1_unknown_cue():
    with pytest.raises(UnknownIdError):
        reason_s1(ConceptGraph.empty(), "ghost", 1, 0.5)


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_reason_s1_decay_one_is_bfs_ball(data):
    n = data.draw(st.integers(2, 9))
    ids = [f"v{i}" for i in range(n)]
    pairs = data.draw(
        st.sets(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda p: p[0] < p[1]
            ),
            max_size=12,
        )
    )
    edges = [(ids[a], ids[b]) for a, b in pairs]
    budget = data.draw(st.integers(0, 4))
    g = build_graph(ids, edges)
    activation = reason_s1(g, ids[0], budget=budget, decay=1.0)
    oracle = bfs_distances(ids, edges, [ids[0]])
    ball = {node for node, d in oracle.items() if d <= budget}
    assert set(activation) == ball
    assert all(v == 1.0 for v in activation.values())


def test_reason_s2_goal_is_premise():
    g = path_graph(["a", "b"])
    assert reason_s2(g, ProblemSpec("a", frozenset(["a"]), 3)) == ()


def test_reason_s2_unique_path():
    g = path_graph(["a", "b", "c"])
    assert reason_s2(g, ProblemSpec("c", frozenset(["a"]), 2)) == ("a", "b", "c")


def test_reason_s2_depth_bound_and_absence():
    g = path_graph(["a", "b", "c", "d"])
    assert reason_s2(g, ProblemSpec("d", frozenset(["a"]), 2)) is None
    g2 = build_graph(["a", "b", "x"], [("a", "b")])
    assert reason_s2(g2, ProblemSpec("x", frozenset(["a"]), 5)) is None


def test_reason_s2_lexicographic_ties():
    # two shortest routes a-b-d and a-c-d: the b-route wins the tie
    g = build_graph(["a", "b", "c", "d"], [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])
    assert reason_s2(g, ProblemSpec("d", frozenset(["a"]), 4)) == ("a", "b", "d")


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_reason_s2_matches_bfs_oracle(data):
    n = data.draw(st.integers(2, 10))
    ids = [f"v{i}" for i in range(n)]
    pairs = data.draw(
        st.sets(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda p: p[0] < p[1]
            ),
            max_size=14,
        )
    )
    edges = [(ids[a], ids[b]) for a, b in pairs]
    g = build_graph(ids, edges)
    goal = ids[-1]
    premises = frozenset([ids[0]])
    path = reason_s2(g, ProblemSpec(goal, premises, n))
    oracle = bfs_distances(ids, edges, [ids[0]])
    if goal in premises:
        assert path == ()
    elif goal not in oracle:
        assert path is None
    else:
        assert path is not None
        assert len(path) - 1 == oracle[goal]


def simple_paths(adj, start, goal, limit):
    """Every simple path from start to goal with at most ``limit`` hops."""
    stack = [(start,)]
    while stack:
        path = stack.pop()
        if path[-1] == goal:
            yield path
        elif len(path) <= limit:
            stack.extend(path + (n,) for n in adj[path[-1]] if n not in path)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_reason_s2_is_the_smallest_shortest_path(data):
    # brute-force oracle: the shortest simple path, ties by id order
    n = data.draw(st.integers(2, 8))
    ids = [f"v{i}" for i in range(n)]
    pairs = data.draw(st.sets(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] < p[1]),
        max_size=16,
    ))
    edges = [(ids[a], ids[b]) for a, b in pairs]
    goal = data.draw(st.sampled_from(ids))
    premises = frozenset(data.draw(st.sets(st.sampled_from(ids), min_size=1, max_size=3)))
    max_depth = data.draw(st.integers(1, n))
    adj = {v: set() for v in ids}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    paths = [p for s in premises for p in simple_paths(adj, s, goal, max_depth)]
    expected = min(paths, key=lambda p: (len(p), p), default=None)
    if goal in premises:
        expected = ()
    assert reason_s2(build_graph(ids, edges), ProblemSpec(goal, premises, max_depth)) == expected


# ---------------------------------------------------------------------------
# Lift and project
# ---------------------------------------------------------------------------

def test_lift_singleton_then_project_is_identity():
    g = build_graph(["a", "b", "c"], [("a", "b"), ("b", "c")])
    lifted = lift(g, [[eid] for eid in sorted(g.layers[0])])
    assert lifted.order == 2
    assert len(lifted.layers[1]) == len(g.layers[0])
    assert same_structure(project(lifted), g)


def test_lift_pair_group():
    g = build_graph(["a", "b", "c"], [("a", "b"), ("b", "c")])
    lifted = lift(g, [["e1_0", "e1_1"]])
    (members,) = lifted.layers[1].values()
    assert members == frozenset(("e1_0", "e1_1"))


def test_lift_empty_grouping_is_valid():
    g = build_graph(["a", "b"], [("a", "b")])
    lifted = lift(g, [])
    assert lifted.order == 2
    assert lifted.layers[1] == {}
    validate_graph(lifted)


def test_lift_rejects_bad_groups():
    g = build_graph(["a", "b"], [("a", "b")])
    with pytest.raises(UnknownIdError):
        lift(g, [["nope"]])
    with pytest.raises(GraphError):
        lift(g, [[]])


def test_project_records_clique_annotation():
    g = build_graph(["a", "b", "c"], [("a", "b"), ("b", "c")])
    lifted = lift(g, [["e1_0", "e1_1"]])
    back = project(lifted)
    assert same_structure(back, g)
    (note,) = back.annotations
    assert note.nodes == frozenset(("a", "b", "c"))
    assert note.provenance == "e2_0"
    assert note.source_order == 2


def test_project_rejects_order_one():
    with pytest.raises(GraphError):
        project(build_graph(["a"], []))


def test_double_lift_double_project_round_trip():
    g = build_graph(["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d")])
    level2 = lift(g, [["e1_0", "e1_1"], ["e1_2"]])
    level3 = lift(level2, [["e3_0", "e3_1"]] if "e3_0" in level2.layers[1] else [["e2_0", "e2_1"]])
    back = project(project(level3))
    assert same_structure(back, g)
    for layer_a, layer_b in zip(back.layers, g.layers):
        assert layer_a == layer_b


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_layer_soundness_under_random_ops(data):
    g = build_graph(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
    for _ in range(data.draw(st.integers(0, 6))):
        op = data.draw(st.sampled_from(["node", "edge", "lift", "remove"]))
        if op == "node":
            g, _ = store(g, Node())
        elif op == "edge":
            nodes = sorted(g.nodes)
            a = data.draw(st.sampled_from(nodes))
            b = data.draw(st.sampled_from(nodes))
            if a != b:
                try:
                    g, _ = store(g, Edge(1, frozenset((a, b))))
                except DuplicateIdError:
                    pass
        elif op == "lift":
            top = sorted(g.layers[-1])
            if top:
                g = lift(g, [[eid] for eid in top])
        else:
            top = sorted(g.layers[-1])
            if top and g.order == 1:
                g = remove(g, top[0]) if _removable(g, top[0]) else g
    validate_graph(g)


def _removable(g, edge_id):
    if g.order < 2:
        return True
    return all(edge_id not in members for members in g.layers[1].values())


_AB = {"a": None, "b": None}


@pytest.mark.parametrize("nodes, layers, error, match", [
    ({}, (), GraphError, "at least the order-1 layer"),
    ({"a": None}, ({"e1_0": frozenset(("a", "b"))},), DanglingMemberError, "order 1"),
    (_AB, ({"e1_0": frozenset(("a", "b"))}, {"e2_0": frozenset(("e1_0", "e1_9"))}),
     DanglingMemberError, "order 2"),
    (_AB, ({"e1_0": frozenset()},), GraphError, "is empty"),
    (_AB, ({"e1_0": frozenset(("a",))},), GraphError, "exactly 2"),
    ({**_AB, "c": None}, ({"e1_0": frozenset(("a", "b", "c"))},), GraphError, "exactly 2"),
    ({"": None}, ({},), GraphError, "whitespace-free"),
    ({"a b": None}, ({},), GraphError, "whitespace-free"),
    ({"a": "two\nlines"}, ({},), GraphError, "single-line"),
], ids=["no-layers", "dangling-order-1", "dangling-order-2", "empty-edge", "order-1-one-node",
        "order-1-three-nodes", "empty-id", "whitespace-id", "multi-line-payload"])
def test_validate_graph_rejects_unsound_graphs(nodes, layers, error, match):
    # built directly, so no store-time check stands between the fault and the validator
    with pytest.raises(GraphError, match=match) as caught:
        validate_graph(ConceptGraph(nodes, layers))
    assert type(caught.value) is error


# ---------------------------------------------------------------------------
# Fitness space
# ---------------------------------------------------------------------------

def test_connectivity_ratio():
    assert connectivity_ratio(ConceptGraph.empty()) == 0.0
    g = build_graph(["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert connectivity_ratio(g) == pytest.approx(2 * 2 / (3 * 2))


def test_fitness_eval_noop_projects_current():
    mind = new_mind(build_graph(["a", "b"], [("a", "b")]))
    triple = fitness_eval(mind, ("noop",))
    assert triple.f_p == triple.f_c == 1.0
    assert triple.f_t == 0.5


def test_fitness_eval_empty_graph_zero():
    triple = fitness_eval(new_mind(), ("noop",))
    assert triple.f_c == 0.0


def test_fitness_eval_isolated_node_drops_projection():
    mind = new_mind(build_graph(["a", "b"], [("a", "b")]))
    triple = fitness_eval(mind, ("store", Node(id="z")))
    # recompute-on-scratch oracle: density 2*1/(3*2) after the store
    assert triple.f_p == pytest.approx(1.0 / 3.0)
    assert triple.f_p < triple.f_c


def test_fitness_eval_is_pure():
    g = build_graph(["a", "b"], [("a", "b")])
    mind = new_mind(g)
    fitness_eval(mind, ("store", Node(id="z")))
    assert same_structure(mind.graph, g)
    assert "z" not in mind.graph.nodes


def test_fitness_eval_rejects_unknown_action():
    with pytest.raises(GraphError):
        fitness_eval(new_mind(), ("conjure",))


def test_sustainable():
    assert sustainable(FitnessTriple(1.0, 1.0, 1.0), 0.01)
    assert not sustainable(FitnessTriple(1.0, 2.0, 1.0), 0.01)
    assert sustainable(FitnessTriple(0.0, 1.0, 1.5), 0.5)  # closed tolerance
    with pytest.raises(GraphError):
        sustainable(FitnessTriple(0, 0, 0), 0.0)


def test_adapt_positive_pressure_adds_edge():
    mind = new_mind(build_graph(["a", "b"], []))
    adapted = adapt(mind, EnvSignal(1.0, frozenset(("a", "b"))))
    assert frozenset(("a", "b")) in adapted.graph.layers[0].values()
    assert len(adapted.transform_log) == 1


def test_adapt_negative_pressure_noop_on_isolated():
    mind = new_mind(build_graph(["a"], []))
    adapted = adapt(mind, EnvSignal(-1.0, frozenset(("a",))))
    assert same_structure(adapted.graph, mind.graph)
    assert adapted.transform_log[-1].endswith("noop")


def test_adapt_opposite_pressures_round_trip():
    g = build_graph(["a", "b"], [])
    mind = new_mind(g)
    up = adapt(mind, EnvSignal(1.0, frozenset(("a", "b"))))
    down = adapt(up, EnvSignal(-1.0, frozenset(("a", "b"))))
    assert same_structure(down.graph, g)
    assert len(down.transform_log) == 2


def test_adapt_validates_ids():
    with pytest.raises(UnknownIdError):
        adapt(new_mind(), EnvSignal(1.0, frozenset(("ghost",))))


def test_stability_score():
    assert stability_score(new_mind(build_graph(["a", "b"], [("a", "b")]))) == 1.0
    assert stability_score(new_mind(build_graph(["a", "b", "c"], []))) == 0.0
    five = build_graph(["a", "b", "c", "d", "e"], [("a", "b"), ("b", "c"), ("d", "e")])
    assert stability_score(new_mind(five)) == pytest.approx(0.75)
    assert stability_score(new_mind()) == 1.0


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_stability_score_bounds(data):
    n = data.draw(st.integers(1, 8))
    ids = [f"v{i}" for i in range(n)]
    pairs = data.draw(
        st.sets(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda p: p[0] < p[1]
            ),
            max_size=10,
        )
    )
    g = build_graph(ids, [(ids[a], ids[b]) for a, b in pairs])
    score = stability_score(new_mind(g))
    assert 0.0 <= score <= 1.0
    comps = len({frozenset(c) for c in _oracle_components(ids, pairs)})
    assert (score == 1.0) == (comps <= 1)


def _oracle_components(ids, pairs):
    parent = {i: i for i in range(len(ids))}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        parent[find(a)] = find(b)
    groups = {}
    for i in range(len(ids)):
        groups.setdefault(find(i), set()).add(ids[i])
    return list(groups.values())


def test_bridge_adds_single_edge_then_noop():
    mind = new_mind(build_graph(["a", "b", "c", "d"], []))
    bridged = bridge(mind, {"a", "b"}, {"c", "d"})
    assert frozenset(("a", "c")) in bridged.graph.layers[0].values()
    again = bridge(bridged, {"a", "b"}, {"c", "d"})
    assert same_structure(again.graph, bridged.graph)
    assert again.transform_log[-1].endswith("noop")


def test_fitness_eval_bridge_projects_bridge():
    mind = new_mind(build_graph(["a", "b", "c", "d"], [("a", "b")]))
    for a, b in (({"a", "b"}, {"c", "d"}), ({"b"}, {"a"})):  # adds an edge, then a no-op
        assert fitness_eval(mind, ("bridge", a, b)).f_p == bridge(mind, a, b).fitness.f_c


def test_bridge_rejects_overlap():
    mind = new_mind(build_graph(["a", "b"], []))
    with pytest.raises(OverlapError):
        bridge(mind, {"a"}, {"a", "b"})
    with pytest.raises(GraphError):
        bridge(mind, set(), {"b"})


def test_mind_log_is_append_only():
    mind = new_mind(build_graph(["a", "b", "c"], []))
    first = adapt(mind, EnvSignal(1.0, frozenset(("a", "b"))))
    second = bridge(first, {"a"}, {"c"})
    assert second.transform_log[: len(first.transform_log)] == first.transform_log
    assert isinstance(second, AgentMind)

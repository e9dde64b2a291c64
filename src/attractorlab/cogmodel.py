"""Layered concept graphs with fitness bookkeeping.

A :class:`ConceptGraph` is a stack of layers.  Layer 1 holds concept nodes
and pairwise edges between them; layer N (N >= 2) holds edges whose members
are edge ids of layer N - 1, so each level groups the structure below it.
:func:`lift` adds a layer from an explicit grouping and :func:`project`
drops the top layer, leaving clique annotations over the underlying nodes
as provenance.

Four graph operations cover use:

* :func:`store` / :func:`remove` - encode and retract nodes or edges,
* :func:`recall` - exact-id or payload-pattern lookup,
* :func:`reason_s1` - spreading activation (decaying breadth-first flood),
* :func:`reason_s2` - deterministic shortest-path search.

Minds pair a graph with a fitness triple (current, target, projected) and
an append-only transform log.  :func:`fitness_eval` projects the fitness
of an action and :func:`sustainable` compares it with the target; the
regulatory operations (:func:`adapt`, :func:`bridge`, :func:`stability_score`)
carry minimal deterministic reference semantics.  Fitness is the edge
density of layer 1 (:func:`connectivity_ratio`).

All operations are functional: inputs are never mutated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fnmatch import fnmatchcase
from itertools import combinations
from typing import Iterable, Sequence


class GraphError(ValueError):
    """Base class for concept-graph contract violations."""


class DuplicateIdError(GraphError):
    pass


class DanglingMemberError(GraphError):
    pass


class UnknownIdError(GraphError):
    pass


class OverlapError(GraphError):
    pass


class UnsupportedActionError(GraphError):
    pass


@dataclass(frozen=True)
class Node:
    """A concept; id is assigned at store time when left as None."""

    payload: str | None = None
    id: str | None = None


@dataclass(frozen=True)
class Edge:
    """A relation in some layer; order-1 members are node ids (exactly two),
    higher-order members are edge ids of the layer below."""

    order: int
    members: frozenset[str]
    id: str | None = None


@dataclass(frozen=True)
class CliqueAnnotation:
    """Projection residue: the node set a dropped top edge used to span."""

    nodes: frozenset[str]
    provenance: str
    source_order: int


@dataclass(frozen=True)
class ConceptGraph:
    nodes: dict[str, str | None]
    layers: tuple[dict[str, frozenset[str]], ...]
    annotations: tuple[CliqueAnnotation, ...] = ()

    @property
    def order(self) -> int:
        return len(self.layers)

    @classmethod
    def empty(cls) -> "ConceptGraph":
        return cls(nodes={}, layers=({},))


def same_structure(a: ConceptGraph, b: ConceptGraph) -> bool:
    """Layer-stack equality: nodes, edges and order; annotations ignored."""
    return a.nodes == b.nodes and a.layers == b.layers


def _check_id(item_id: str) -> None:
    if not item_id or any(ch.isspace() for ch in item_id):
        raise GraphError(f"ids must be non-empty and whitespace-free, got {item_id!r}")


def _check_payload(payload: str | None) -> None:
    if payload is None:
        return
    if payload == "" or "\n" in payload or "\r" in payload:
        raise GraphError("payloads must be non-empty, single-line strings")


def _check_nodes(graph: ConceptGraph, ids: Iterable[str], what: str) -> None:
    missing = sorted(x for x in ids if x not in graph.nodes)
    if missing:
        raise UnknownIdError(f"{what} references missing nodes {missing}")


def _check_edge(graph: ConceptGraph, depth: int, edge_id: str, members: frozenset[str]) -> None:
    """Id hygiene, no empty edges, order-1 arity 2, and every member
    present in the layer below."""
    _check_id(edge_id)
    if not members:
        raise GraphError(f"edge {edge_id} is empty")
    if depth == 1 and len(members) != 2:
        raise GraphError(f"order-1 edge {edge_id} must connect exactly 2 distinct nodes")
    below = graph.nodes if depth == 1 else graph.layers[depth - 2]
    for m in members:
        if m not in below:
            raise DanglingMemberError(f"edge {edge_id} (order {depth}) references missing {m!r}")


def validate_graph(graph: ConceptGraph) -> None:
    """Full validator: id hygiene plus layer soundness (every edge's
    members exist in the layer below, no empty edges, order-1 arity 2)."""
    if not graph.layers:
        raise GraphError("a graph has at least the order-1 layer")
    for node_id, payload in graph.nodes.items():
        _check_id(node_id)
        _check_payload(payload)
    for depth, layer in enumerate(graph.layers, start=1):
        for edge_id, members in layer.items():
            _check_edge(graph, depth, edge_id, members)


def _all_edge_ids(graph: ConceptGraph) -> dict[str, int]:
    out = {}
    for depth, layer in enumerate(graph.layers, start=1):
        for edge_id in layer:
            out[edge_id] = depth
    return out


def _fresh_id(taken: dict, prefix: str) -> str:
    k = len(taken)
    while f"{prefix}{k}" in taken:
        k += 1
    return f"{prefix}{k}"


def _with_layer(graph: ConceptGraph, depth: int, layer: dict[str, frozenset[str]]) -> ConceptGraph:
    layers = graph.layers[:depth - 1] + (layer,) + graph.layers[depth:]
    return ConceptGraph(graph.nodes, layers, graph.annotations)


# ---------------------------------------------------------------------------
# Storage and recall
# ---------------------------------------------------------------------------

def store(graph: ConceptGraph, item: Node | Edge) -> tuple[ConceptGraph, str]:
    """Add a node or edge, returning the new graph and the assigned id.

    Edge members must already exist in the layer below, and the target
    layer itself must exist (``lift`` is the operation that adds layers).
    """
    if isinstance(item, Node):
        _check_payload(item.payload)
        node_id = item.id if item.id is not None else _fresh_id(graph.nodes, "n")
        _check_id(node_id)
        if node_id in graph.nodes:
            raise DuplicateIdError(f"node id {node_id!r} already stored")
        nodes = dict(graph.nodes)
        nodes[node_id] = item.payload
        return ConceptGraph(nodes, graph.layers, graph.annotations), node_id

    if not isinstance(item, Edge):
        raise GraphError(f"cannot store {type(item).__name__}")
    order = item.order
    if not 1 <= order <= graph.order:
        raise GraphError(
            f"edge order {order} outside this graph's layers (1..{graph.order}); "
            "use lift to add a layer"
        )
    members = frozenset(item.members)
    edge_id = item.id if item.id is not None else _fresh_id(graph.layers[order - 1], f"e{order}_")
    _check_edge(graph, order, edge_id, members)
    if edge_id in graph.layers[order - 1]:
        raise DuplicateIdError(f"edge id {edge_id!r} already stored in layer {order}")
    return _with_layer(graph, order, {**graph.layers[order - 1], edge_id: members}), edge_id


def remove(graph: ConceptGraph, item_id: str) -> ConceptGraph:
    """Retract a node or edge; refuses while anything still references it."""
    if item_id in graph.nodes:
        for edge_id, members in graph.layers[0].items():
            if item_id in members:
                raise GraphError(f"node {item_id!r} is still used by edge {edge_id!r}")
        nodes = dict(graph.nodes)
        del nodes[item_id]
        return ConceptGraph(nodes, graph.layers, graph.annotations)

    depth = _all_edge_ids(graph).get(item_id)
    if depth is None:
        raise UnknownIdError(f"no item with id {item_id!r}")
    if depth < graph.order:
        for edge_id, members in graph.layers[depth].items():
            if item_id in members:
                raise GraphError(f"edge {item_id!r} is still used by edge {edge_id!r}")
    layer = dict(graph.layers[depth - 1])
    del layer[item_id]
    return _with_layer(graph, depth, layer)


def recall(graph: ConceptGraph, key: str) -> list[Node | Edge]:
    """Exact-id lookup, else payload glob match over nodes, in id order.

    An empty result is a value, not an error.
    """
    if key in graph.nodes:
        return [Node(payload=graph.nodes[key], id=key)]
    for depth, layer in enumerate(graph.layers, start=1):
        if key in layer:
            return [Edge(order=depth, members=layer[key], id=key)]
    hits = []
    for node_id in sorted(graph.nodes):
        payload = graph.nodes[node_id]
        if payload is not None and fnmatchcase(payload, key):
            hits.append(Node(payload=payload, id=node_id))
    return hits


# ---------------------------------------------------------------------------
# Reasoning
# ---------------------------------------------------------------------------

def _adjacency(graph: ConceptGraph) -> dict[str, list[str]]:
    adj: dict[str, list[str]] = {node_id: [] for node_id in graph.nodes}
    for members in graph.layers[0].values():
        a, b = sorted(members)
        adj[a].append(b)
        adj[b].append(a)
    for node_id in adj:
        adj[node_id] = sorted(set(adj[node_id]))
    return adj


def _hops(adj: dict[str, list[str]], sources, limit: int | None) -> dict[str, int]:
    """Breadth-first hop count from ``sources`` along layer-1 edges, for
    nodes within ``limit`` hops (every reachable node when None)."""
    dist = {s: 0 for s in sources}
    frontier = sorted(sources)
    hop = 0
    while frontier and (limit is None or hop < limit):
        hop += 1
        nxt = []
        for node in frontier:
            for nbr in adj[node]:
                if nbr not in dist:
                    dist[nbr] = hop
                    nxt.append(nbr)
        frontier = nxt
    return dist


def reason_s1(
    graph: ConceptGraph, cue: str, budget: int, decay: float
) -> dict[str, float]:
    """Spreading activation from ``cue``: activation decay**hops along
    layer-1 edges, max over paths, nodes beyond ``budget`` hops omitted.

    Since decay lies in (0, 1], the max over paths is decay to the
    shortest-path distance.
    """
    if cue not in graph.nodes:
        raise UnknownIdError(f"unknown cue {cue!r}")
    if budget < 0:
        raise GraphError(f"budget must be >= 0, got {budget}")
    if not 0.0 < decay <= 1.0:
        raise GraphError(f"decay must lie in (0, 1], got {decay}")
    dist = _hops(_adjacency(graph), [cue], budget)
    return {node: decay ** d for node, d in dist.items()}


@dataclass(frozen=True)
class ProblemSpec:
    goal: str
    premises: frozenset[str]
    max_depth: int = 1

    def __post_init__(self):
        if self.max_depth < 1:
            raise GraphError(f"max_depth must be >= 1, got {self.max_depth}")

    def check_ids(self, graph: ConceptGraph) -> None:
        _check_nodes(graph, [self.goal, *self.premises], "problem")


def reason_s2(graph: ConceptGraph, problem: ProblemSpec) -> tuple[str, ...] | None:
    """Shortest layer-1 path from any premise to the goal within max_depth.

    Hop counts to the goal come from one breadth-first pass.  The path
    starts at the nearest premise and steps each time to a neighbor one hop
    closer, ties broken by lexicographic id order, so it is the smallest
    shortest path in id order.
    Returns the node sequence, an empty tuple when the goal is already a
    premise, or None when no path exists within the depth bound.
    """
    problem.check_ids(graph)
    if problem.goal in problem.premises:
        return ()
    adj = _adjacency(graph)
    to_goal = _hops(adj, [problem.goal], problem.max_depth)
    reached = sorted((to_goal[p], p) for p in problem.premises if p in to_goal)
    if not reached:
        return None
    path = [reached[0][1]]
    while path[-1] != problem.goal:
        hops = to_goal[path[-1]]
        path.append(next(n for n in adj[path[-1]] if to_goal.get(n) == hops - 1))
    return tuple(path)


# ---------------------------------------------------------------------------
# Layer navigation
# ---------------------------------------------------------------------------

def lift(graph: ConceptGraph, grouping: Sequence[Iterable[str]]) -> ConceptGraph:
    """Add a layer whose edges are exactly the given groups of current
    top-layer edge ids.  An empty grouping adds an empty (valid) layer."""
    top = graph.layers[-1]
    new_order = graph.order + 1
    layer: dict[str, frozenset[str]] = {}
    for i, group in enumerate(grouping):
        members = frozenset(group)
        if not members:
            raise GraphError(f"group {i} is empty")
        for m in members:
            if m not in top:
                raise UnknownIdError(
                    f"group {i} references {m!r}, not an order-{graph.order} edge"
                )
        layer[f"e{new_order}_{i}"] = members
    return ConceptGraph(graph.nodes, graph.layers + (layer,), graph.annotations)


def _underlying_nodes(graph: ConceptGraph, depth: int, members: frozenset[str]) -> frozenset[str]:
    if depth == 1:
        return frozenset(members)
    out: set[str] = set()
    below = graph.layers[depth - 2]
    for m in members:
        out |= _underlying_nodes(graph, depth - 1, below[m])
    return frozenset(out)


def project(graph: ConceptGraph) -> ConceptGraph:
    """Drop the top layer, recording each dropped edge as a clique
    annotation over its underlying nodes (provenance kept by edge id)."""
    if graph.order < 2:
        raise GraphError("projection needs a graph of order >= 2")
    top = graph.layers[-1]
    notes = list(graph.annotations)
    for edge_id in sorted(top):
        nodes = _underlying_nodes(graph, graph.order, top[edge_id])
        notes.append(CliqueAnnotation(nodes, edge_id, graph.order))
    return ConceptGraph(graph.nodes, graph.layers[:-1], tuple(notes))


# ---------------------------------------------------------------------------
# Fitness space
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FitnessTriple:
    f_c: float  # current
    f_t: float  # target
    f_p: float  # projected

    def __post_init__(self):
        for name in ("f_c", "f_t", "f_p"):
            if not math.isfinite(getattr(self, name)):
                raise GraphError(f"fitness component {name} must be finite")


@dataclass(frozen=True)
class EnvSignal:
    pressure: float
    affected: frozenset[str]

    def __post_init__(self):
        if not math.isfinite(self.pressure):
            raise GraphError("pressure must be finite")


@dataclass(frozen=True)
class AgentMind:
    graph: ConceptGraph
    fitness: FitnessTriple
    transform_log: tuple[str, ...] = ()


def connectivity_ratio(graph: ConceptGraph) -> float:
    """Fitness of a graph: layer-1 edge density
    ``2 |edges| / (|nodes| (|nodes| - 1))``, 0 below two nodes."""
    n = len(graph.nodes)
    if n < 2:
        return 0.0
    return 2.0 * len(graph.layers[0]) / (n * (n - 1))


def new_mind(graph: ConceptGraph | None = None, target_fitness: float = 0.5) -> AgentMind:
    g = graph if graph is not None else ConceptGraph.empty()
    f_c = connectivity_ratio(g)
    return AgentMind(g, FitnessTriple(f_c, target_fitness, f_c))


Action = tuple  # ("noop",) | ("store", item) | ("remove", id)
#               | ("adapt", EnvSignal) | ("bridge", ids_a, ids_b)


def _link_first(graph: ConceptGraph, pairs: Iterable[tuple[str, str]]) -> tuple[ConceptGraph, str]:
    """Store a layer-1 edge for the first of ``pairs`` not already linked;
    a no-op when every pair is linked."""
    linked = set(map(frozenset, graph.layers[0].values()))
    for pair in map(frozenset, pairs):
        if pair not in linked:
            new, edge_id = store(graph, Edge(order=1, members=pair))
            return new, f"added {edge_id}"
    return graph, "noop"


def _adapt_graph(graph: ConceptGraph, env: EnvSignal) -> tuple[ConceptGraph, str]:
    _check_nodes(graph, env.affected, "signal")
    if env.pressure > 0.0:
        return _link_first(graph, combinations(sorted(env.affected), 2))
    if env.pressure < 0.0:
        # pinned edges (referenced by a higher layer) are skipped
        pinned = set()
        if graph.order >= 2:
            for members in graph.layers[1].values():
                pinned |= members
        incident = sorted(
            eid
            for eid, members in graph.layers[0].items()
            if members & env.affected and eid not in pinned
        )
        if not incident:
            return graph, "noop"
        return remove(graph, incident[0]), f"removed {incident[0]}"
    return graph, "noop"


def _apply_action(graph: ConceptGraph, action: Action) -> ConceptGraph:
    if not action or not isinstance(action, tuple):
        raise UnsupportedActionError(f"malformed action {action!r}")
    kind = action[0]
    if kind == "noop":
        return graph
    if kind == "store":
        return store(graph, action[1])[0]
    if kind == "remove":
        return remove(graph, action[1])
    if kind == "adapt":
        return _adapt_graph(graph, action[1])[0]
    if kind == "bridge":
        return _bridge_graph(graph, frozenset(action[1]), frozenset(action[2]))[0]
    raise UnsupportedActionError(f"unsupported action {kind!r}")


def fitness_eval(mind: AgentMind, action: Action) -> FitnessTriple:
    """(current, target, projected) fitness; the projection applies the
    action to a scratch copy, so the mind itself is untouched."""
    f_c = connectivity_ratio(mind.graph)
    f_p = connectivity_ratio(_apply_action(mind.graph, action))
    return FitnessTriple(f_c, mind.fitness.f_t, f_p)


def sustainable(triple: FitnessTriple, eps: float) -> bool:
    """Projected fitness within eps of target (closed tolerance)."""
    if not eps > 0.0:
        raise GraphError(f"eps must be > 0, got {eps}")
    return abs(triple.f_p - triple.f_t) <= eps


def adapt(mind: AgentMind, env: EnvSignal) -> AgentMind:
    """Structural response to fitness pressure (reference policy).

    Positive pressure links the first lexicographic unlinked pair of
    affected nodes; negative pressure removes the lowest-id layer-1 edge
    incident to them; no applicable change is a logged no-op.
    """
    graph, note = _adapt_graph(mind.graph, env)
    f_c = connectivity_ratio(graph)
    log = mind.transform_log + (f"adapt({env.pressure:+g}): {note}",)
    return AgentMind(graph, FitnessTriple(f_c, mind.fitness.f_t, f_c), log)


def stability_score(mind: AgentMind) -> float:
    """1 for a connected (or <= 1 node) layer-1 graph, falling toward 0
    with fragmentation: ``1 - (components - 1) / max(1, nodes - 1)``."""
    graph = mind.graph
    n = len(graph.nodes)
    if n <= 1:
        return 1.0
    comps = len(_components(graph))
    return 1.0 - (comps - 1) / max(1, n - 1)


def _check_bridge_sets(graph: ConceptGraph, a: frozenset[str], b: frozenset[str]) -> None:
    if not a or not b:
        raise GraphError("bridge domains must be non-empty")
    if a & b:
        raise OverlapError(f"bridge domains overlap on {sorted(a & b)}")
    _check_nodes(graph, a | b, "bridge")


def _bridge_graph(
    graph: ConceptGraph, a: frozenset[str], b: frozenset[str]
) -> tuple[ConceptGraph, str]:
    _check_bridge_sets(graph, a, b)
    return _link_first(graph, [(min(a), min(b))])


def bridge(mind: AgentMind, domain_a: Iterable[str], domain_b: Iterable[str]) -> AgentMind:
    """Link the lowest-id nodes of two disjoint domains (no-op when the
    edge already exists); logged either way."""
    a, b = frozenset(domain_a), frozenset(domain_b)
    graph, note = _bridge_graph(mind.graph, a, b)
    f_c = connectivity_ratio(graph)
    log = mind.transform_log + (f"bridge({min(a)},{min(b)}): {note}",)
    return AgentMind(graph, FitnessTriple(f_c, mind.fitness.f_t, f_c), log)


def _components(graph: ConceptGraph) -> list[set[str]]:
    adj = _adjacency(graph)
    seen: set[str] = set()
    comps = []
    for start in sorted(graph.nodes):
        if start not in seen:
            comp = set(_hops(adj, [start], None))
            seen |= comp
            comps.append(comp)
    return comps

"""Workload definitions: the calls each workload makes, its inputs and checks.

Every input is a function of the workload seed: the master seed of every CLI
call, the ``rng_seed`` of the library calls, and the imported graph.  This
module imports nothing from attractorlab at module level, so ``run.py`` can
load it without importing the program it measures.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
from dataclasses import dataclass

WORKLOADS = ("netgrowth_io", "lockin_lib", "abm_graph", "cusp_sweeps")
DEFAULT_SEED = 1

GAME = "1,0,0,1"
GAME_DOC = {"r": 1.0, "sg": 0.0, "t": 0.0, "pu": 1.0}
LAMBDA_LO, LAMBDA_HI = -0.6, 0.6
THETAS = ("1", "0.5")
GRAPH_FILE = "graph.txt"

# intervention_cost probes boost 1 and 1024, then halves log2(boost) in
# [0, 10] until the bracket is below 0.05: two end probes plus eight halvings.
COST_PROBES = 10

SIZES = {
    "full": {
        "ng_nodes": 10000, "ng_replicates": 400,
        "cost_nodes": 2000, "cost_seeds": (2, 4, 8), "cost_replicates": 200,
        "lockin_nodes": 5000, "lockin_replicates": 200,
        "abm_n": 10000, "abm_chords": 30000, "abm_replicates": 20, "abm_rounds": 30,
        "basin_replicates": 20, "cusp_step": "1e-3",
    },
    # tiny exists for the benchmark's own smoke tests
    "tiny": {
        "ng_nodes": 200, "ng_replicates": 4,
        "cost_nodes": 100, "cost_seeds": (2,), "cost_replicates": 5,
        "lockin_nodes": 200, "lockin_replicates": 5,
        "abm_n": 200, "abm_chords": 600, "abm_replicates": 2, "abm_rounds": 3,
        "basin_replicates": 2, "cusp_step": "0.05",
    },
}


class CheckError(RuntimeError):
    """A call's outputs failed a correctness check."""


@dataclass(frozen=True)
class Call:
    """One operation of a workload.

    ``argv`` is an ``attractorlab`` command line without ``--out``; ``None``
    marks the in-process library call of ``lockin_lib``.  ``doc`` is the
    scenario config the call loads, used to time ``harness.load_config``.
    ``work`` counts the call's units of work for the throughput metric.
    """

    name: str
    argv: tuple[str, ...] | None
    doc: dict | None
    work: int


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    size: str
    calls: tuple[Call, ...]
    work_unit: str


def sweep_points(lo: float, hi: float, step: float) -> int:
    """Number of lambda values on the regular sweep grid, both ends included."""
    return int(math.floor((hi - lo) / step + 1e-9)) + 1


def build(name: str, seed: int, size: str, work_dir: str) -> Workload:
    """Calls of one workload; ``abm_graph`` expects its graph in work_dir."""
    z = SIZES[size]
    s = str(seed)
    if name == "netgrowth_io":
        n, reps = z["ng_nodes"], z["ng_replicates"]
        argv = ("netgrowth", "--seeds", "2,1", "--nodes", str(n), "--replicates", str(reps),
                "--jobs", "1", "--seed", s, "--quiet")
        doc = {"kind": "netgrowth", "master_seed": seed, "replicates": reps,
               "params": {"n_nodes": n, "seed_agi": 2, "seed_dci": 1}}
        return Workload(name, seed, size, (Call("netgrowth", argv, doc, n * reps),), "arrivals")
    if name == "lockin_lib":
        work = (len(z["cost_seeds"]) * COST_PROBES * z["cost_replicates"] * z["cost_nodes"]
                + z["lockin_replicates"] * z["lockin_nodes"])
        return Workload(name, seed, size, (Call("lockin", None, None, work),), "arrivals")
    if name == "abm_graph":
        n, rounds = z["abm_n"], z["abm_rounds"]
        path = os.path.join(work_dir, GRAPH_FILE)
        abm_argv = ("abm", "--n", str(n), "--x0", "0.45", "--game", GAME, "--rounds", str(rounds),
                    "--replicates", str(z["abm_replicates"]), "--topology", f"file:{path}",
                    "--jobs", "1", "--seed", s, "--quiet")
        abm_doc = {"kind": "abm", "master_seed": seed, "replicates": z["abm_replicates"],
                   "params": {"n": n, "x0": 0.45, "game": GAME_DOC, "rounds": rounds,
                              "topology": {"kind": "imported", "path": path}}}
        basin_argv = ("basin", "--topology", "ring:4", "--n", str(n), "--x0-list", "0.45,0.55",
                      "--game", GAME, "--rounds", str(rounds),
                      "--replicates", str(z["basin_replicates"]), "--jobs", "1", "--seed", s,
                      "--quiet")
        basin_doc = {"kind": "basin", "master_seed": seed, "replicates": z["basin_replicates"],
                     "params": {"n": n, "x0_list": [0.45, 0.55], "game": GAME_DOC,
                                "rounds": rounds, "topology": {"kind": "ring_lattice", "k": 4}}}
        calls = (
            Call("abm", abm_argv, abm_doc, n * rounds * z["abm_replicates"]),
            Call("basin", basin_argv, basin_doc, n * rounds * z["basin_replicates"] * 2),
        )
        return Workload(name, seed, size, calls, "agent-rounds")
    if name == "cusp_sweeps":
        step = z["cusp_step"]
        points = sweep_points(LAMBDA_LO, LAMBDA_HI, float(step))
        calls = []
        for theta in THETAS:
            for sub, kind, work in (("hysteresis", "hysteresis", 2 * points),
                                    ("bifurcate", "bifurcation", points)):
                argv = (sub, "--theta", theta, "--lambda-lo", str(LAMBDA_LO),
                        "--lambda-hi", str(LAMBDA_HI), "--step", step, "--seed", s, "--quiet")
                doc = {"kind": kind, "master_seed": seed, "replicates": 1,
                       "params": {"theta": float(theta), "lambda_lo": LAMBDA_LO,
                                  "lambda_hi": LAMBDA_HI, "step": float(step)}}
                calls.append(Call(f"{sub}_theta{theta}", argv, doc, work))
        return Workload(name, seed, size, tuple(calls), "sweep-points")
    raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")


def write_graph(path: str, n: int, chords: int, seed: int) -> None:
    """Ring backbone over n nodes plus ``chords`` seeded random chords.

    The ring leaves no node isolated; chords never repeat an edge (in either
    orientation) or close a self-loop.  Same (n, chords, seed), same file.
    """
    if chords > n * (n - 1) // 2 - n:
        raise ValueError(f"{chords} chords do not fit a simple graph on {n} nodes")
    rng = random.Random(seed)
    seen = {(min(i, (i + 1) % n), max(i, (i + 1) % n)) for i in range(n)}
    lines = [f"{i} {(i + 1) % n}" for i in range(n)]
    while len(lines) < n + chords:
        u, v = rng.randrange(n), rng.randrange(n)
        key = (min(u, v), max(u, v))
        if u == v or key in seen:
            continue
        seen.add(key)
        lines.append(f"{u} {v}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def prepare(workload: Workload, work_dir: str) -> None:
    """Write the workload's generated inputs into work_dir."""
    if workload.name == "abm_graph":
        z = SIZES[workload.size]
        write_graph(os.path.join(work_dir, GRAPH_FILE), z["abm_n"], z["abm_chords"], workload.seed)


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def check_outputs(out_dir: str) -> str:
    """Verify a run directory against its manifest; return a digest of its data.

    The manifest must list exactly the data files on disk, each with its
    sha256.  The returned digest covers every data file's name and sha256,
    so it pins every data byte; ``manifest.json`` itself holds timestamps
    and is not part of it.
    """
    manifest_path = os.path.join(out_dir, "manifest.json")
    try:
        with open(manifest_path, encoding="utf-8") as fh:
            listed = json.load(fh)["files"]
    except (OSError, ValueError, KeyError) as exc:
        raise CheckError(f"unreadable manifest in {out_dir}: {exc}") from None
    on_disk = sorted(set(os.listdir(out_dir)) - {"manifest.json"})
    if sorted(listed) != on_disk:
        extra = sorted(set(on_disk) - set(listed))
        missing = sorted(set(listed) - set(on_disk))
        raise CheckError(f"manifest and disk differ: unlisted {extra[:3]}, missing {missing[:3]}")
    lines = []
    for name in on_disk:
        actual = sha256_file(os.path.join(out_dir, name))
        if actual != listed[name]:
            raise CheckError(f"{name}: manifest digest {listed[name]} != file digest {actual}")
        lines.append(f"{name} {actual}\n")
    return hashlib.sha256("".join(lines).encode()).hexdigest()


def lockin_configs(netgrowth, seed: int, size: str) -> tuple[list, object]:
    """The GrowthConfigs of ``lockin_lib``: intervention-cost bases and the
    degree_pa lock-in config, all validated."""
    z = SIZES[size]
    bases = [netgrowth.GrowthConfig(n_nodes=z["cost_nodes"], seed_agi=k, seed_dci=1, rng_seed=seed)
             for k in z["cost_seeds"]]
    lockin = netgrowth.GrowthConfig(n_nodes=z["lockin_nodes"], m=2, seed_agi=2, seed_dci=1,
                                    mode=netgrowth.MODE_DEGREE_PA, tau=0.9, rng_seed=seed)
    for cfg in (*bases, lockin):
        cfg.validate()
    return bases, lockin


def run_lockin(netgrowth, seed: int, size: str) -> str:
    """The ``lockin_lib`` library calls; returns their results as text."""
    z = SIZES[size]
    bases, lockin = lockin_configs(netgrowth, seed, size)
    lines = []
    for base in bases:
        boost = netgrowth.intervention_cost(base, 0.5, horizon=base.n_nodes,
                                            replicates=z["cost_replicates"])
        lines.append(f"intervention_cost seed_agi={base.seed_agi} boost={boost!r}")
    est = netgrowth.estimate_lockin(lockin, z["lockin_replicates"], 0.9)
    lines.append(f"estimate_lockin p_agi={est.p_agi_lockin!r} p_dci={est.p_dci_lockin!r} "
                 f"ci={est.ci_halfwidth!r}")
    return "\n".join(lines) + "\n"

"""Golden data digests: the bytes each scenario emits are pinned across
versions, not only across reruns of the same code.

Every data file (``manifest.json`` excluded, it carries timestamps) of the
criterion-10 scenario set and of seven extra scenarios is compared with a
committed sha256.  The library results of ``intervention_cost`` and
``estimate_lockin``, which write no file, are pinned by their exact ``repr``.  A refactor or speed-up that changes any output byte fails
here.  To re-pin after an intended change of outputs, print the digests of
``_run`` and replace the constants, saying why in the change log.
"""

import hashlib
import json
import math
import os
import types

import numpy as np
import pytest

from attractorlab import dynamics
from attractorlab.harness import load_config, run_scenario
from attractorlab.netgrowth import MODE_DEGREE_PA, GrowthConfig, estimate_lockin, intervention_cost
from test_acceptance import DETERMINISM_DOCS

MASTER_SEED = 1234

# a 12-node ring with four chords, written by the test
EDGES = "0 1\n1 2\n2 3\n3 4\n4 5\n5 6\n6 7\n7 8\n8 9\n9 10\n10 11\n11 0\n0 6\n2 9\n3 7\n1 5\n"
COORDINATION = {"r": 1, "sg": 0, "t": 0, "pu": 1}

# scenarios beyond DETERMINISM_DOCS; the kind is the name up to the first "_"
EXTRA_DOCS = {
    "abm_imported": {
        "replicates": 2,
        "params": {"n": 12, "x0": 0.5, "rounds": 15, "noise": 0.02, "game": COORDINATION,
                   "topology": {"kind": "imported", "path": None}},
    },
    "abm_fermi": {
        "replicates": 2,
        "params": {"n": 300, "x0": 0.5, "rounds": 15, "game": COORDINATION,
                   "update": {"kind": "fermi", "beta": 2.0}},
    },
    "abm_ring": {
        "replicates": 2,
        "params": {"n": 40, "x0": 0.5, "rounds": 15, "noise": 0.05, "game": COORDINATION,
                   "topology": {"kind": "ring_lattice", "k": 4}},
    },
    "netgrowth_degree_pa": {
        "replicates": 3,
        "params": {"n_nodes": 500, "seed_agi": 2, "seed_dci": 1, "mode": "degree_pa", "m": 2},
    },
    # payoffs from a 2x2 game, the replicator branch the criterion-10 doc does not take
    "replicator_game": {
        "replicates": 2,
        "params": {"x0": 0.3, "t_end": 2.0, "game": {"r": 3, "sg": 0, "t": 5, "pu": 1}},
    },
    # a symmetric lambda grid with 0.0 on it, where the down sweep can mirror the up
    # sweep, at a theta with a loop and at theta = 0, where the equilibrium is unique
    "hysteresis_half": {
        "replicates": 1,
        "params": {"theta": 0.5, "lambda_lo": -1.0, "lambda_hi": 1.0, "step": 0.01},
    },
    "hysteresis_flat": {
        "replicates": 1,
        "params": {"theta": 0.0, "lambda_lo": -1.0, "lambda_hi": 1.0, "step": 0.01},
    },
    # theta = 0 with 0.0 on both grids: at lambda = 0 the scan hits the triple root
    # s = 0 as an exact grid zero and labels it marginal
    "bifurcation_flat": {
        "replicates": 1,
        "params": {"theta": 0.0, "lambda_lo": -1.0, "lambda_hi": 1.0, "step": 0.05},
    },
    # theta > 1 on a coarse scan grid, three roots between the folds at -/+1.089
    "bifurcation_steep": {
        "replicates": 1,
        "params": {"theta": 2.0, "lambda_lo": -1.5, "lambda_hi": 1.5, "step": 0.05, "grid_n": 64},
    },
}

GOLDEN = {
    "replicator": {
        "summary.csv": "70f55f2db5c86e5829faf2de6206ca9d4bae88da386e5f640eba5133999c4a5e",
        "trajectory_0000.csv": "1732defce5b1dc05345f4efa1c7fea51d7d4dbbd3c951125147d1c53484bdc22",
        "trajectory_0001.csv": "1732defce5b1dc05345f4efa1c7fea51d7d4dbbd3c951125147d1c53484bdc22",
    },
    "bifurcation": {
        "bifurcation.csv": "617226b28e3bf0ea6a511a123bcf319fe42f0756b53c9a32f4e84e63ff4cc75d",
        "summary.csv": "a6ca54f209d8da4bf4cba99eb4190ca62a0b2a0a82d485393a2bf67d8f468c2f",
    },
    "hysteresis": {
        "hysteresis.csv": "5b1881915bc5f519f9dbb4667ab66c303b7c6404e722f8f87f1db1c5432d6116",
        "summary.csv": "0ce612a51321f7f543fb36267ccd9ff3dbf3358ca82320bbd4e13a20f770f8ee",
    },
    "netgrowth": {
        "shares_0000.csv": "77ee3993252add06b3f7b1c55b3c7e658ccf22df300b343e5840658d63c01699",
        "shares_0001.csv": "b1e937d56de40dc9ea6bdd833054c6b00312a0739fb883ea9ee78340cf2e7a89",
        "shares_0002.csv": "43196fa1211ccb51ba8a749db04836cedac9c6f90c511db8b0926e69bd831a7f",
        "shares_0003.csv": "e7522d92a52733ac31e061a894832d532975b824a61ebaf00144504cd78dba94",
        "shares_0004.csv": "38e520a24330113c237d7c693d85ffe99fa43375e3025bb8a4b63fcce7eff2a7",
        "summary.csv": "a7127aa27c8a45cef610043b9c22750bfdc0c1022d54720a80f4238ab49ff10c",
    },
    "abm": {
        "abm_0000.csv": "77e3a8a5875cd3861fd9913eee06eca278dbf7f76a5b1cdfdc4e9fbcccdc69f3",
        "abm_0001.csv": "187f3a7001dc30e5867c2167f72af538731871727159b20559058da202d08b8a",
        "abm_0002.csv": "4f8f3085e0d18841732054ae2826df144d2f08575932e7b19acc4a61e6825bbc",
        "summary.csv": "e95f608bb8cecc33dd048e33ac95d95e197a866bf479cd1e86805ed7be24adbc",
    },
    "basin": {
        "summary.csv": "a8fc0f71906f5fa8b137aee225ef38a3488049865fceb21f6b9b52f8c7346694",
    },
    "abm_imported": {
        "abm_0000.csv": "e3ece738b26d9836b7a189a959375a714047cfa7ead3b02876369a24572f0656",
        "abm_0001.csv": "cfbe1a4febb5b58d7d655232f529be5dfcee5915de96f337eed47824616d80f8",
        "summary.csv": "849fb12ab46617e71aace688dbf08a90b12cc54ec054f94f7dcfb6f834041446",
    },
    "abm_fermi": {
        "abm_0000.csv": "e516e900263ca2492b38c2a98849b1330b171ff073bd0beba598c558a1d4c007",
        "abm_0001.csv": "360c5cbdca15ca45e5069f45dd5f361654449642c8d3730821636112a535756b",
        "summary.csv": "151862fc1f56728a499943ac6f462723ec0eefec0366b299747b28b8a94bb029",
    },
    "abm_ring": {
        "abm_0000.csv": "7cb9c0a0cb16d79cd69243b027e3e11bdc2d88165436f306015311edbd1bf630",
        "abm_0001.csv": "375cce260d9fb43dcffe82d606997f83d01e71e1aa82b199177546f580657ee9",
        "summary.csv": "d9df91b160522da47d3194a4d41da3773df58be0619efbea64d3ca23dfd33767",
    },
    "netgrowth_degree_pa": {
        "shares_0000.csv": "9c4289b051c6bb89adc0dc7a07a468c849b598353455d006ec02c21ab099ec42",
        "shares_0001.csv": "c62676b828c88c8f34944afd40ef0cd74fb1b0e1cd688c395d6a3082a5ae62fb",
        "shares_0002.csv": "d4213d8e3acc22037efeba7837fbdd5057e3d6898662c42202f07fce6764cce6",
        "summary.csv": "511949a819871f8b2d52b964dd23f5c0c2d951cef915daaea2cca499be03b9a9",
    },
    "replicator_game": {
        "summary.csv": "3482ebcdad2cdf93cbbd4a10d0095913b83c83cbf3421fbde3dabfafdb14d4fd",
        "trajectory_0000.csv": "880f33052447063f15c88773a7ec7aedc2f70c25ffbc21353b8011ad034f5cff",
        "trajectory_0001.csv": "880f33052447063f15c88773a7ec7aedc2f70c25ffbc21353b8011ad034f5cff",
    },
    "hysteresis_half": {
        "hysteresis.csv": "2385fd1fce8146f932c827a4ce23824a6f9648fadc41cbb43d4afa38aceb9e2d",
        "summary.csv": "ebcf397f8c1469fa58c82646d4b354831ecbb74402220cce5eddf56657044199",
    },
    "hysteresis_flat": {
        "hysteresis.csv": "8b94839a39764febd9069a1a847813651be13d5487172aaeb9dd95bf093ce9f8",
        "summary.csv": "f77468a66f5a265e2b91001bdeb82f93daa0499da45b54b8be6ee0aa004e9cf9",
    },
    "bifurcation_flat": {
        "bifurcation.csv": "274ef561f2cf08c5db49b30da2a0ee6d3fe7519238117cc4801739b8ca23bfce",
        "summary.csv": "2d49d8a453e3edf3cd31e2e3c996061e138dd9cbcbdb007c76cc29fad04a1162",
    },
    "bifurcation_steep": {
        "bifurcation.csv": "4b18fd9e4d42455ac5186351a9643be16486e4bb7c6b2db1e8fbb898ccb53ea5",
        "summary.csv": "a6ca54f209d8da4bf4cba99eb4190ca62a0b2a0a82d485393a2bf67d8f468c2f",
    },
}

ALL_DOCS = {**DETERMINISM_DOCS, **EXTRA_DOCS}


def _run(name, tmp_path):
    """Run one pinned scenario; return {data file name: sha256}."""
    overrides = ALL_DOCS[name]
    params = json.loads(json.dumps(overrides["params"]))
    if params.get("topology", {}).get("kind") == "imported":
        path = tmp_path / "graph.edges"
        path.write_text(EDGES)
        params["topology"]["path"] = str(path)
    out = str(tmp_path / name)
    doc = {
        "kind": name.split("_")[0],
        "master_seed": MASTER_SEED,
        "replicates": overrides.get("replicates", 2),
        "output_dir": out,
        "params": params,
    }
    _, _, manifest = run_scenario(load_config(json.dumps(doc)))
    digests = {}
    for file_name in manifest.files:
        with open(os.path.join(out, file_name), "rb") as fh:
            digests[file_name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def test_golden_covers_every_doc():
    assert set(GOLDEN) == set(ALL_DOCS)


@pytest.mark.parametrize("name", sorted(ALL_DOCS))
def test_golden_digests(name, tmp_path):
    assert _run(name, tmp_path) == GOLDEN[name]


def test_bifurcation_flat_labels_an_exact_grid_zero_marginal(tmp_path):
    # the golden must take the scan's exact-zero branch, not only its brackets:
    # lambda = 0 and s = 0 are both grid points, and the rate vanishes there
    params = EXTRA_DOCS["bifurcation_flat"]["params"]
    lams = dynamics._param_grid(params["lambda_lo"], params["lambda_hi"], params["step"])
    bound = dynamics._cusp_bracket(0.0, params["lambda_lo"], params["lambda_hi"])
    xs = np.linspace(-bound, bound, dynamics.DEFAULT_GRID_N + 1)
    assert 0.0 in lams and 0.0 in xs.tolist()
    assert dynamics._cusp(0.0, 0.0)(xs).tolist().count(0.0) == 1
    _run("bifurcation_flat", tmp_path)
    rows = (tmp_path / "bifurcation_flat" / "bifurcation.csv").read_text().splitlines()
    assert [row for row in rows if row.endswith(",marginal")] == ["0.0,0.0,marginal"]


def test_golden_catches_numpy_cube(tmp_path, monkeypatch):
    # numpy's array x**3 differs from Python's float x**3 in the last bit for
    # a few percent of inputs; the relaxation kernel evaluated on arrays must
    # show up.  The state is a 1-element array (a 0-d one would decay to a
    # numpy scalar after one operation), so the finiteness check goes through
    # a shim that accepts arrays.
    relax = dynamics._relax
    array_math = types.SimpleNamespace(**vars(math))
    array_math.isfinite = lambda v: bool(np.isfinite(v).all())

    def array_relax(lam, theta, s, relax_t, dt):
        state, settled = relax(lam, theta, np.array([s]), relax_t, dt)
        return float(state[0]), settled

    monkeypatch.setattr(dynamics, "math", array_math)
    monkeypatch.setattr(dynamics, "_relax", array_relax)
    digests = _run("hysteresis", tmp_path)
    assert digests["hysteresis.csv"] != GOLDEN["hysteresis"]["hysteresis.csv"]


# exact reprs of library results that no data file carries
GOLDEN_COST = {2: "1.1763969916502812", 4: "1.460917794180647"}
GOLDEN_LOCKIN = ("LockInEstimate(tau=0.9, p_agi_lockin=0.4166666666666667, "
                 "p_dci_lockin=0.13333333333333333, ci_halfwidth=0.12474789391824231)")


@pytest.mark.parametrize("seed_agi", sorted(GOLDEN_COST))
def test_golden_intervention_cost(seed_agi):
    base = GrowthConfig(n_nodes=300, seed_agi=seed_agi, seed_dci=1, rng_seed=7)
    boost = intervention_cost(base, 0.5, horizon=300, replicates=40)
    assert repr(boost) == GOLDEN_COST[seed_agi]


def test_golden_estimate_lockin():
    # seeds 2:1 leave the DCI camp a bare node, so the bootstrap weight is pinned too
    config = GrowthConfig(n_nodes=600, m=2, seed_agi=2, seed_dci=1, mode=MODE_DEGREE_PA, rng_seed=7)
    assert repr(estimate_lockin(config, 60, 0.9)) == GOLDEN_LOCKIN

import concurrent.futures
import errno
import hashlib
import json
import os
import sys
import tempfile
import threading
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import field, make_dataclass, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from attractorlab import cli, harness, netgrowth
from attractorlab.harness import (
    REQUIRED,
    ConfigError,
    ScenarioConfig,
    aggregate,
    load_config,
    run_scenario,
    serialize_config,
    write_outputs,
)
from attractorlab.rng import mix64
from test_acceptance import DETERMINISM_DOCS


def netgrowth_doc(out, replicates=4, master_seed=42, **params):
    base = {"n_nodes": 200, "seed_agi": 2, "seed_dci": 1}
    base.update(params)
    return {
        "kind": "netgrowth",
        "master_seed": master_seed,
        "replicates": replicates,
        "output_dir": out,
        "params": base,
    }


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


# ---------------------------------------------------------------------------
# Config loading
# ---------------------------------------------------------------------------

def test_minimal_replicator_config_fills_defaults():
    cfg = load_config(json.dumps({
        "kind": "replicator",
        "master_seed": 1,
        "replicates": 1,
        "params": {"x0": 0.1, "t_end": 1.0, "p_c": 2, "p_d": 1},
    }))
    assert cfg.params["dt"] == 1e-3
    assert cfg.output_dir == "out"


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError, match="foo"):
        load_config(json.dumps({
            "kind": "replicator", "master_seed": 1, "replicates": 1, "foo": 1,
            "params": {"x0": 0.1, "t_end": 1.0, "p_c": 2, "p_d": 1},
        }))
    with pytest.raises(ConfigError, match="bar"):
        load_config(json.dumps({
            "kind": "netgrowth", "master_seed": 1, "replicates": 1,
            "params": {"n_nodes": 10, "bar": 2},
        }))


def test_zero_replicates_rejected():
    with pytest.raises(ConfigError, match="replicates"):
        load_config(json.dumps({
            "kind": "netgrowth", "master_seed": 1, "replicates": 0,
            "params": {"n_nodes": 10},
        }))


def test_parse_error_carries_line_and_column():
    with pytest.raises(ConfigError, match=r"line \d+, column \d+"):
        load_config('{"kind": "netgrowth",\n  "master_seed": }')


def test_module_precondition_surfaces_as_config_error():
    with pytest.raises(ConfigError, match="netgrowth"):
        load_config(json.dumps({
            "kind": "netgrowth", "master_seed": 1, "replicates": 1,
            "params": {"n_nodes": 0},
        }))


def test_replicator_payoff_modes_exclusive():
    base = {"kind": "replicator", "master_seed": 1, "replicates": 1}
    with pytest.raises(ConfigError, match="invalid replicator params: give either p_c/p_d or game, not both"):
        load_config(json.dumps({**base, "params": {
            "x0": 0.1, "t_end": 1.0, "p_c": 1, "p_d": 0,
            "game": {"r": 1, "sg": 0, "t": 0, "pu": 1},
        }}))
    with pytest.raises(ConfigError, match="invalid replicator params: constant payoffs need both p_c and p_d"):
        load_config(json.dumps({**base, "params": {"x0": 0.1, "t_end": 1.0, "p_c": 1}}))


_HUGE = "1" + "0" * 400  # a JSON integer past the float range


@pytest.mark.parametrize("kind, params, named", [
    ("replicator", '{"x0": 0.1, "t_end": 1, "p_c": HUGE, "p_d": 1}', "'p_c'"),
    ("abm", '{"n": 10, "x0": 0.5, "rounds": 2, "game": {"r": HUGE, "sg": 0, "t": 0, "pu": 1}}', "'r'"),
    ("basin", '{"n": 10, "rounds": 2, "game": {"r": 1, "sg": 0, "t": 0, "pu": 1}, '
              '"x0_list": [0.2, -HUGE]}', "'x0_list'"),
])
def test_integer_past_the_float_range_is_a_config_error(kind, params, named):
    text = (f'{{"kind": "{kind}", "master_seed": 1, "replicates": 1, '
            f'"params": {params.replace("HUGE", _HUGE)}}}')
    with pytest.raises(ConfigError, match=f"field {named} is too large for a float: an integer of 1329 bits"):
        load_config(text)


def test_integer_past_the_digit_limit_is_a_config_error():
    # Python refuses to parse an integer of more than 4300 digits
    text = '{"kind": "netgrowth", "master_seed": 1, "replicates": 1, "params": {"n_nodes": 1%s}}'
    with pytest.raises(ConfigError, match="config parse error: Exceeds the limit"):
        load_config(text % ("0" * 5000))


def test_deterministic_kinds_require_single_replicate():
    with pytest.raises(ConfigError, match="replicates=1"):
        load_config(json.dumps({
            "kind": "bifurcation", "master_seed": 1, "replicates": 3,
            "params": {"theta": 1.0, "lambda_lo": -0.1, "lambda_hi": 0.1, "step": 0.05},
        }))


_BASIN_PARAMS = {"n": 10, "rounds": 2, "game": {"r": 1, "sg": 0, "t": 0, "pu": 1}, "x0_list": [0.2, 0.8]}


@pytest.mark.parametrize("kind, params, replicates, streams", [
    ("netgrowth", {"n_nodes": 10}, 1_000_001, "1,000,001"),
    ("netgrowth", {"n_nodes": 10}, 10 ** 12, "1,000,000,000,000"),
    ("basin", _BASIN_PARAMS, 500_001, "1,000,002"),  # two streams per replicate
], ids=["netgrowth", "netgrowth-10**12", "basin-two-x0"])
def test_oversized_replicates_times_streams_is_a_config_error(monkeypatch, kind, params, replicates, streams):
    # refused before the params are built, and before run_scenario makes a seed per stream
    def no_build(params):
        raise AssertionError("built")

    monkeypatch.setitem(harness.KINDS, kind, replace(harness.KINDS[kind], build=no_build))
    doc = {"kind": kind, "master_seed": 1, "replicates": replicates, "params": params}
    with pytest.raises(ConfigError, match=f"replicates={replicates:,} asks for {streams} seed streams, "
                                          "above the limit of 1,000,000"):
        load_config(json.dumps(doc))


@pytest.mark.parametrize("kind, params, replicates", [
    ("netgrowth", {"n_nodes": 10}, 1_000_000),
    ("basin", _BASIN_PARAMS, 500_000),
], ids=["netgrowth", "basin-two-x0"])
def test_replicates_times_streams_at_the_limit_loads(kind, params, replicates):
    assert harness.MAX_STREAMS == 1_000_000
    doc = {"kind": kind, "master_seed": 1, "replicates": replicates, "params": params}
    assert load_config(json.dumps(doc)).replicates == replicates


_COORDINATION = {"r": 1, "sg": 0, "t": 0, "pu": 1}


def _abm_doc(n, rounds, topology):
    params = {"n": n, "x0": 0.5, "rounds": rounds, "game": _COORDINATION, "topology": topology}
    return json.dumps({"kind": "abm", "master_seed": 1, "replicates": 1, "params": params})


_TOPOLOGIES = [{"kind": "well_mixed"}, {"kind": "ring_lattice", "k": 4}]


@pytest.mark.parametrize("topology", _TOPOLOGIES, ids=["well_mixed", "ring"])
@pytest.mark.parametrize("n, rounds, message", [
    (10_000_001, 1, "n=10,000,001 is above the limit of 10,000,000 agents"),
    (1000, 100_001, "n=1,000 x rounds=100,001 asks for 100,001,000 agent-rounds, above the limit of 100,000,000"),
    (2, 1_000_001, "rounds=1,000,001 is above the limit of 1,000,000 rounds"),
])
def test_oversized_abm_is_a_config_error(topology, n, rounds, message):
    with pytest.raises(ConfigError, match=f"invalid abm params: {message}"):
        load_config(_abm_doc(n, rounds, topology))


@pytest.mark.parametrize("topology", _TOPOLOGIES, ids=["well_mixed", "ring"])
@pytest.mark.parametrize("n, rounds", [(10_000_000, 10), (1000, 100_000), (5, 1_000_000)])
def test_abm_at_the_work_limits_loads(topology, n, rounds):
    # neither topology allocates anything sized by n at load
    assert load_config(_abm_doc(n, rounds, topology)).model.n == n


@pytest.mark.parametrize("rounds", [1_000_000, 1_000_001])
def test_basin_rounds_are_checked_against_the_round_limit_at_load(rounds):
    assert harness.abm.MAX_ROUNDS == 1_000_000
    doc = json.dumps({"kind": "basin", "master_seed": 1, "replicates": 1,
                      "params": {**_BASIN_PARAMS, "n": 2, "rounds": rounds}})
    if rounds > harness.abm.MAX_ROUNDS:
        with pytest.raises(ConfigError, match="invalid basin params: rounds=1,000,001 is above "
                                              "the limit of 1,000,000 rounds"):
            load_config(doc)
    else:
        assert load_config(doc).model[0].rounds == rounds  # (template, x0_list)


@pytest.mark.parametrize("limit, value", [("MAX_AGENTS", 11), ("MAX_AGENT_ROUNDS", 12 * 3 - 1)])
def test_abm_work_size_is_checked_before_the_graph_is_read(tmp_path, monkeypatch, limit, value):
    # Imported(edges, n) sizes its arrays by n, so the check comes first; the
    # limits are patched small so that no oversized graph is ever built
    path = tmp_path / "ring.edges"
    path.write_text("".join(f"{i} {(i + 1) % 12}\n" for i in range(12)))
    topology = {"kind": "imported", "path": str(path)}
    assert load_config(_abm_doc(12, 3, topology)).model.topology.n == 12

    def no_graph(*args):
        raise AssertionError("topology built")

    monkeypatch.setattr(harness.abm, limit, value)
    monkeypatch.setattr(harness, "_build_topology", no_graph)
    with pytest.raises(ConfigError, match=rf"invalid abm params: n=12 .*above the limit of {value}\b"):
        load_config(_abm_doc(12, 3, topology))


def test_config_round_trip():
    doc = netgrowth_doc("somewhere", mode="degree_pa", m=2)
    cfg = load_config(json.dumps(doc))
    assert load_config(serialize_config(cfg)) == cfg


def test_basin_config_requires_x0_list():
    base = {
        "kind": "basin", "master_seed": 1, "replicates": 2,
        "params": {
            "n": 10, "rounds": 2, "game": {"r": 1, "sg": 0, "t": 0, "pu": 1},
            "x0_list": [],
        },
    }
    with pytest.raises(ConfigError, match="x0_list"):
        load_config(json.dumps(base))


# The params schemas as they were written by hand before they were read off
# the model signatures, with their defaults spelled out; every derived schema
# must keep each key's cast, default and required status.  A cast of None is a
# variant object, checked by behaviour in the test below.
_SWEEP = {key: (harness._as_float, REQUIRED) for key in ("theta", "lambda_lo", "lambda_hi", "step")}
_POPULATION = {
    "n": (harness._as_int, REQUIRED),
    "game": (harness._norm_game, REQUIRED),
    "rounds": (harness._as_int, REQUIRED),
    "topology": (None, {"kind": "well_mixed"}),
    "update": (None, {"kind": "proportional_imitation"}),
    "noise": (harness._as_float, 0.0),
    "s_c": (harness._as_float, 0.1),
    "s_d": (harness._as_float, 0.9),
}
WRITTEN_SCHEMAS = {
    "replicator": {
        "x0": (harness._as_float, REQUIRED),
        "t_end": (harness._as_float, REQUIRED),
        "dt": (harness._as_float, 1e-3),
        "p_c": (harness._as_float, harness._OPTIONAL),
        "p_d": (harness._as_float, harness._OPTIONAL),
        "game": (harness._norm_game, harness._OPTIONAL),
    },
    "bifurcation": {**_SWEEP, "grid_n": (harness._as_int, 1024)},
    "hysteresis": {**_SWEEP, "relax_t": (harness._as_float, 50.0),
                   "relax_dt": (harness._as_float, 0.01), "jump_tol": (harness._as_float, 0.5)},
    "netgrowth": {
        "n_nodes": (harness._as_int, REQUIRED),
        "m": (harness._as_int, 1),
        "seed_agi": (harness._as_int, 1),
        "seed_dci": (harness._as_int, 1),
        "mode": (harness._as_str, "urn"),
        "dci_boost": (harness._as_float, 1.0),
        "tau": (harness._as_float, 0.9),
    },
    "abm": {**_POPULATION, "x0": (harness._as_float, REQUIRED)},
    "basin": {**_POPULATION, "x0_list": (harness._norm_x0_list, REQUIRED)},
}
# (value, what the written cast gave: the loaded value, or None for a ConfigError)
_VARIANTS = {
    "topology": [({"kind": "well_mixed"}, {"kind": "well_mixed"}),
                 ({"kind": "ring_lattice", "k": 4}, {"kind": "ring_lattice", "k": 4}),
                 ({"kind": "imported", "path": "g"}, {"kind": "imported", "path": "g"}),
                 ({"kind": "ring_lattice"}, None), ({"kind": "ring_lattice", "k": 0.5}, None),
                 ({"kind": "well_mixed", "k": 4}, None), ({"kind": "lattice"}, None), ("ring", None)],
    "update": [({"kind": "proportional_imitation"}, {"kind": "proportional_imitation"}),
               ({"kind": "fermi", "beta": 2}, {"kind": "fermi", "beta": 2.0}),
               ({"kind": "fermi"}, None), ({"kind": "fermi", "beta": "2"}, None),
               ({"kind": "moran"}, None), (None, None)],
}


def _cast_or_none(cast, value, key):
    try:
        return cast(value, key)
    except ConfigError:
        return None


@pytest.mark.parametrize("kind", list(WRITTEN_SCHEMAS))
def test_derived_schemas_match_the_written_ones(kind):
    schema = harness.KINDS[kind].schema
    assert set(schema) == set(WRITTEN_SCHEMAS[kind])
    for key, (cast, default) in WRITTEN_SCHEMAS[kind].items():
        got_cast, got_default = schema[key]
        assert got_default == default and type(got_default) is type(default), key
        assert (got_default is REQUIRED) == (default is REQUIRED), key
        if cast is None:
            assert [_cast_or_none(got_cast, value, key) for value, _ in _VARIANTS[key]] == [
                loaded for _, loaded in _VARIANTS[key]], key
        else:
            assert got_cast is cast, key


def test_a_new_model_field_gets_a_key_and_a_flag(tmp_path, monkeypatch):
    # a field added to the model reaches the loader and the CLI with no other edit
    lockin = make_dataclass("LockinConfig", [("head_start", "int", field(default=0))],
                            bases=(netgrowth.GrowthConfig,), frozen=True)
    schema = harness._params_of(lockin, skip=("rng_seed",))
    assert schema == {**harness.KINDS["netgrowth"].schema, "head_start": (harness._as_int, 0)}
    monkeypatch.setitem(harness.KINDS, "netgrowth", replace(
        harness.KINDS["netgrowth"], schema=schema, build=lambda params: lockin(**params)))
    assert ("--head-start", ("head_start",), False) in list(cli._flags("netgrowth"))
    assert cli.build_parser().parse_args(["netgrowth", "--nodes", "5", "--head-start", "3"]).head_start == 3
    config = load_config(json.dumps(netgrowth_doc(str(tmp_path / "run"))))
    assert config.params["head_start"] == 0 and config.model.head_start == 0
    with pytest.raises(ConfigError, match="'head_start' must be an integer"):
        load_config(json.dumps(netgrowth_doc(str(tmp_path / "run"), head_start=0.5)))


# ---------------------------------------------------------------------------
# Seeds and aggregation
# ---------------------------------------------------------------------------

def test_mix64_injective_over_index_range():
    seeds = {mix64(42, i) for i in range(20_000)}
    assert len(seeds) == 20_000


def test_mix64_depends_on_master():
    assert mix64(1, 0) != mix64(2, 0)
    with pytest.raises(ValueError):
        mix64(1, -1)


def test_aggregate_basics():
    s = aggregate([1.0, 1.0, 1.0])
    assert (s.mean, s.std, s.n) == (1.0, 0.0, 3)
    s = aggregate([0.0, 1.0])
    assert s.mean == 0.5
    assert s.min == 0.0 and s.max == 1.0
    single = aggregate([3.5])
    assert single.std == 0.0 and single.ci95 == 0.0


def test_aggregate_empty_rejected():
    with pytest.raises(ValueError):
        aggregate([])


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=40),
       st.randoms(use_true_random=False))
def test_aggregate_permutation_invariant(values, rand):
    shuffled = list(values)
    rand.shuffle(shuffled)
    assert aggregate(values) == aggregate(shuffled)


# ---------------------------------------------------------------------------
# Running scenarios
# ---------------------------------------------------------------------------

def test_run_scenario_reproducible_bytes(tmp_path):
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    _, _, manifest = run_scenario(load_config(json.dumps(netgrowth_doc(out_a))))
    run_scenario(load_config(json.dumps(netgrowth_doc(out_b))))
    names = [n for n in manifest.files if n != "manifest.json"]
    assert names
    for name in names:
        assert read(os.path.join(out_a, name)) == read(os.path.join(out_b, name))


@pytest.mark.parametrize("kind", ["netgrowth", "abm", "replicator"])
def test_run_scenario_jobs_match_serial(tmp_path, kind):
    # every kind that writes trace files; the workers write them
    overrides = DETERMINISM_DOCS[kind]
    # each worker runs one contiguous slice: 1 + 2 and 2 + 3 replicates at 2 workers
    for replicates in (3, 5):
        digests = []
        for jobs in (1, 2):
            out = str(tmp_path / f"r{replicates}jobs{jobs}")
            doc = {"kind": kind, "master_seed": 42, "replicates": replicates,
                   "output_dir": out, "params": overrides["params"]}
            _, _, manifest = run_scenario(load_config(json.dumps(doc)), jobs=jobs)
            assert sorted(os.listdir(out)) == sorted([*manifest.files, "manifest.json"])
            digests.append({name: hashlib.sha256(read(os.path.join(out, name))).hexdigest()
                            for name in manifest.files})
            assert digests[-1] == manifest.files
        assert digests[0] == digests[1]


def grown_bytes(config, index):
    """The bytes of ``shares_<index>.csv`` as ``grow`` and ``write_outputs`` give them."""
    cfg = replace(config.model, rng_seed=mix64(config.master_seed, index))
    with tempfile.TemporaryDirectory() as out:
        (path,) = write_outputs("netgrowth", [netgrowth.grow(cfg)], out, index)
        return read(path)


@pytest.mark.parametrize("params", [
    {"n_nodes": 203},
    {"n_nodes": 203, "mode": "degree_pa", "m": 2, "dci_boost": 1.7},
    {"n_nodes": 45, "mode": "degree_pa", "m": 3, "seed_agi": 1, "seed_dci": 1, "dci_boost": 0.3},
    {"n_nodes": 1, "mode": "degree_pa", "seed_agi": 1},
    {"n_nodes": 1},
], ids=["urn", "degree_pa-boost", "bare-camps", "one-arrival-bare", "one-arrival"])
def test_netgrowth_files_are_the_bytes_of_grow(tmp_path, params):
    out = str(tmp_path / "run")
    config = load_config(json.dumps(netgrowth_doc(out, replicates=5, master_seed=9, **params)))
    run_scenario(config)
    for i in range(5):
        assert read(os.path.join(out, f"shares_{i:04d}.csv")) == grown_bytes(config, i)


@pytest.mark.parametrize("jobs", [1, 2])
def test_netgrowth_chunks_and_worker_slices_straddle(tmp_path, monkeypatch, jobs):
    # chunks of 3: [0, 3) [3, 6) [6, 7) serially; [0, 3) | [3, 6) [6, 7) at 2 workers,
    # every one of them stepped by _step
    monkeypatch.setattr(netgrowth, "_CHUNK_REPLICATES", 3)
    monkeypatch.setattr(netgrowth, "_MIN_BATCH_REPLICATES", 0)
    out = str(tmp_path / "run")
    config = load_config(json.dumps(netgrowth_doc(out, replicates=7, n_nodes=37, mode="degree_pa")))
    records, _, manifest = run_scenario(config, jobs=jobs)
    assert [list(record.files) for record in records] == [[f"shares_{i:04d}.csv"] for i in range(7)]
    for i in range(7):
        data = read(os.path.join(out, f"shares_{i:04d}.csv"))
        assert data == grown_bytes(config, i)
        assert manifest.files[f"shares_{i:04d}.csv"] == hashlib.sha256(data).hexdigest()


_THRESHOLD = netgrowth._MIN_BATCH_REPLICATES


@pytest.mark.parametrize("replicates, steps", [(1, []), (_THRESHOLD - 1, []), (_THRESHOLD, [_THRESHOLD])],
                         ids=["one", "below-threshold", "at-threshold"])
def test_netgrowth_steps_only_chunks_at_the_threshold(tmp_path, monkeypatch, replicates, steps):
    # a small run grows each replicate alone; both paths give grow's bytes
    calls = []
    step = netgrowth._step
    monkeypatch.setattr(netgrowth, "_step", lambda *args: calls.append(len(args[1])) or step(*args))
    out = str(tmp_path / "run")
    config = load_config(json.dumps(netgrowth_doc(out, replicates=replicates, n_nodes=37, mode="degree_pa")))
    run_scenario(config)
    assert calls == steps
    for i in range(replicates):
        assert read(os.path.join(out, f"shares_{i:04d}.csv")) == grown_bytes(config, i)


@pytest.mark.parametrize("params", [{}, {"mode": "degree_pa", "m": 2, "dci_boost": 0.6}])
def test_netgrowth_last_rows_are_the_final_shares(tmp_path, params):
    # the cross-kind oracle: the trace kind and the lock-in kernel step alike
    out = str(tmp_path / "run")
    config = load_config(json.dumps(netgrowth_doc(out, replicates=6, master_seed=3, **params)))
    run_scenario(config)
    model = replace(config.model, rng_seed=3)
    finals = netgrowth._final_shares(model, netgrowth._generators(model, range(6)), [model.dci_boost])
    for i, final in enumerate(finals[0].tolist()):
        last = read(os.path.join(out, f"shares_{i:04d}.csv")).splitlines()[-1]
        assert last == b"%d,%r" % (config.model.n_nodes, final)


def test_manifest_records_the_environment(tmp_path):
    import platform

    import orjson

    data = []
    for jobs in (1, 2):
        out = str(tmp_path / f"jobs{jobs}")
        _, _, manifest = run_scenario(load_config(json.dumps(netgrowth_doc(out, replicates=3))), jobs=jobs)
        with open(os.path.join(out, "manifest.json"), encoding="utf-8") as fh:
            env = json.load(fh)["env"]
        assert env == manifest.env
        assert env == {
            "python": platform.python_version(), "numpy": np.__version__,
            "orjson": orjson.__version__, "platform": platform.platform(),
            "cpu_count": os.cpu_count(), "jobs": min(jobs, 3, os.cpu_count() or 1),
        }
        data.append({name: read(os.path.join(out, name)) for name in manifest.files})
    assert data[0] == data[1]


@pytest.mark.parametrize("jobs", [0, -2])
def test_jobs_below_one_run_and_record_one_worker(tmp_path, jobs):
    out = str(tmp_path / "run")
    _, _, manifest = run_scenario(load_config(json.dumps(netgrowth_doc(out, replicates=2, n_nodes=20))), jobs=jobs)
    with open(os.path.join(out, "manifest.json"), encoding="utf-8") as fh:
        assert json.load(fh)["env"]["jobs"] == manifest.env["jobs"] == 1


def test_run_scenario_memory_does_not_grow_with_traces(tmp_path):
    # the parent keeps a small record per replicate, never its trace
    n_nodes = 2000

    def peak(replicates):
        doc = netgrowth_doc(str(tmp_path / f"r{replicates}"), replicates=replicates, n_nodes=n_nodes)
        config = load_config(json.dumps(doc))
        tracemalloc.start()
        try:
            run_scenario(config)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(2)  # first-call allocations and per-process caches
    small, large = peak(25), peak(400)
    traces = (400 - 25) * n_nodes * 8  # float64 shares of the extra replicates
    assert large - small < 0.1 * traces, (small, large)


def test_write_outputs_memory_does_not_grow_with_trace_length(tmp_path):
    # rows are formatted, written and hashed _CHUNK_ROWS at a time
    def peak(n_nodes):
        trace = netgrowth.grow(netgrowth.GrowthConfig(n_nodes=n_nodes, seed_agi=2, seed_dci=1, rng_seed=1))
        tracemalloc.start()
        try:
            write_outputs("netgrowth", [trace], str(tmp_path / str(n_nodes)))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(200_000), peak(1_000_000)
    assert abs(large - small) < 2_000_000, (small, large)


# The per-value formatters that the one chunked writer replaces, kept as the reference.

def _fmt(x) -> str:
    return repr(float(x))


def _old_rows(start, values):
    return "".join(",".join((str(s + start), _fmt(v))) + "\n" for s, v in enumerate(values))


def _old_pairs(first, second):
    return "".join(f"{_fmt(a)},{_fmt(b)}\n" for a, b in zip(first, second))


def _old_hysteresis(report):
    return "".join(f"{sweep},{_fmt(lam)},{_fmt(state)}\n"
                   for sweep, branch in (("up", report.up_branch), ("down", report.down_branch))
                   for lam, state in branch)


def _old_bifurcation(sweep):
    return "".join(f"{_fmt(lam)},{_fmt(root.location)},{root.stability}\n"
                   for lam, rep in sweep for root in rep.roots)


def _old_summary(summary):
    return "".join(f"{name},{_fmt(s.mean)},{_fmt(s.std)},{_fmt(s.min)},{_fmt(s.max)},"
                   f"{_fmt(s.ci95)},{s.n}\n" for name, s in summary.items())


def _written(columns, header="a,b") -> str:
    """The rows ``_write_csv`` writes for ``columns``, after checking the
    header line and the digest it returns."""
    with tempfile.TemporaryDirectory() as out:
        path = os.path.join(out, "data.csv")
        digest = harness._write_csv(path, header, columns)
        data = read(path)
    assert digest == hashlib.sha256(data).hexdigest()
    assert data.startswith(header.encode() + b"\n")
    return data[len(header) + 1:].decode()


_EDGE_FLOATS = st.sampled_from([
    0.0, -0.0, 1e-4, 9.999999999999999e-05, 1e-5, -3.3e-7, 5e-324, -5e-324,
    2.2250738585072014e-308, 2.225073858507201e-308, 1e16, 1e22, -1.7976931348623157e308,
    0.1, 2.0 / 3.0, 123456789.123, float("inf"), float("-inf"), float("nan"),
])
_FLOAT64 = arrays(np.float64, st.integers(0, 40),
                  elements=st.one_of(_EDGE_FLOATS, st.floats(width=64)))


# finite floats that orjson spells as repr does: 1e-4 <= |v| < 1e16, and +-0.0
_AGREEING = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-4, -1e-4, 9999999999999998.0, -9999999999999998.0, 0.1, 2.0 / 3.0]),
    st.floats(1e-4, 9999999999999998.0),
    st.floats(-9999999999999998.0, -1e-4),
)


@st.composite
def _agreeing_arrays(draw, max_size):
    """Float arrays in the agreement range: hypothesis draws (edges included)
    at about half the positions, seeded random digits from every decade of
    the range at the others."""
    values = draw(arrays(np.float64, st.integers(0, max_size), elements=_AGREEING))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    spread = 10.0 ** rng.uniform(-4, 16, values.size) * rng.choice([-1.0, 1.0], values.size)
    spread[(np.abs(spread) < 1e-4) | (np.abs(spread) >= 1e16)] = 1e-4
    mask = rng.random(values.size) < 0.5
    values[mask] = spread[mask]
    return values


_OUT_OF_RANGE = [9.999999999999999e-05, -9.999999999999999e-05, 1e16, -1e16, float("nan"),
                 float("inf"), float("-inf"), 5e-324]


@settings(max_examples=200, deadline=None)
@given(_FLOAT64, st.integers(0, 2))
def test_bulk_lines_match_row_formatting(values, start):
    assert _written([range(start, start + len(values)), values]) == _old_rows(start, values)


@contextmanager
def _orjson_spy():
    import orjson

    with mock.patch.object(orjson, "dumps", wraps=orjson.dumps) as spy:
        yield spy


@settings(max_examples=60, deadline=None)
@given(_agreeing_arrays(10_000), st.integers(0, 2))
def test_rows_in_the_agreement_range_match_repr(values, start):
    with _orjson_spy() as spy:
        rows = _written([range(start, start + len(values)), values])
    assert spy.called == (len(values) > 0)  # the orjson path
    assert rows == _old_rows(start, values)


@settings(max_examples=100, deadline=None)
@given(_agreeing_arrays(300), st.sampled_from([2, 3, -1, -2]), st.integers(0, 2))
def test_rows_of_strided_views_match_repr(values, stride, start):
    # orjson serializes only C-contiguous arrays; the writers get views too
    view, other = values[::stride], values[: len(values[::stride])]
    with _orjson_spy() as spy:
        assert _written([range(start, start + len(view)), view]) == _old_rows(start, view)
        # a float first column, as the replicator writes it, strided in either column
        for t, x in ((view, other), (other, view)):
            assert _written([t, x]) == _old_pairs(t, x)
    assert spy.called == (len(view) > 0)


@settings(max_examples=60, deadline=None)
@given(_agreeing_arrays(300).filter(len), _agreeing_arrays(300).filter(len))
def test_step_column_follows_start_and_size(first, second):
    # starts 0 and 1 at one length, then a second length, in one process: a
    # step-prefix cache keyed by the length alone, or never refreshed, fails
    for values in (first, second, first):
        for start in (0, 1, 0):
            assert _written([range(start, start + len(values)), values]) == _old_rows(start, values)


@settings(max_examples=150, deadline=None)
@given(_agreeing_arrays(300).filter(len), st.sampled_from(_OUT_OF_RANGE),
       st.data())
def test_one_value_out_of_range_keeps_repr_bytes(values, bad, data):
    values[data.draw(st.integers(0, len(values) - 1), label="position")] = bad
    agreeing = np.linspace(0.0, 1.0, len(values))
    with _orjson_spy() as spy:
        assert _written([range(1, len(values) + 1), values]) == _old_rows(1, values)
        assert not spy.called
        # two float columns, as the replicator writes them, with the bad value in either
        for t, x in ((values, agreeing), (agreeing, values)):
            assert _written([t, x]) == _old_pairs(t, x)
    # the range check is per column: orjson dumps the agreeing column, never the other
    assert spy.call_count == 2
    assert not any(_holds(call.args[0], bad) for call in spy.call_args_list)


def _holds(array, value) -> bool:
    return bool(np.isnan(array).any() if np.isnan(value) else (array == value).any())


@settings(max_examples=100, deadline=None)
@given(st.one_of(_FLOAT64, _agreeing_arrays(300)))
def test_trace_writers_match_row_formatting(values):
    from attractorlab import abm, dynamics, netgrowth

    floats = values.tolist()
    cut = len(floats) // 3
    report = dynamics.HysteresisReport(tuple(zip(floats[:cut], floats[::-1][:cut])),
                                       tuple(zip(floats[cut:], floats[::-1][cut:])), (), (), 0.0)
    labels = (dynamics.STABLE, dynamics.UNSTABLE, dynamics.MARGINAL)
    sweep = [(lam, dynamics.FixedPointReport(tuple(dynamics.FixedPoint(x, labels[j % 3])
                                                   for j, x in enumerate(floats[i:i + i % 4]))))
             for i, lam in enumerate(floats)]
    header_rows = {
        "netgrowth": (netgrowth.GrowthTrace(values, None), "step,agi_share", _old_rows(1, values)),
        "abm": (abm.AbmTrace(values, abm.OUTCOME_UNDECIDED), "round,coop_fraction", _old_rows(0, values)),
        "replicator": (dynamics.Trajectory(values[::-1], values), "t,x", _old_pairs(values[::-1], values)),
        "hysteresis": (report, "sweep,lambda,state", _old_hysteresis(report)),
        "bifurcation": (sweep, "lambda,root,stability", _old_bifurcation(sweep)),
    }
    for kind, (trace, header, rows) in header_rows.items():
        _, got_header, columns = harness.KINDS[kind].write(trace, 0)
        assert (got_header, _written(columns, got_header)) == (header, rows)


@pytest.mark.parametrize("kind", DETERMINISM_DOCS)
def test_run_files_match_row_formatting(tmp_path, kind):
    # summary.csv of every kind, and the sweep files of real sweeps, whose
    # lambdas near 0 send a column to the per-value path
    out = str(tmp_path / "run")
    doc = {"kind": kind, "master_seed": 5, "replicates": DETERMINISM_DOCS[kind].get("replicates", 2),
           "output_dir": out, "params": DETERMINISM_DOCS[kind]["params"]}
    config = load_config(json.dumps(doc))
    _, summary, _ = run_scenario(config)
    assert read(os.path.join(out, "summary.csv")).decode() == (
        "metric,mean,std,min,max,ci95,n\n" + _old_summary(summary))
    if kind in ("hysteresis", "bifurcation"):
        (result,) = harness.KINDS[kind].run(config.model, 5, range(1))
        old = _old_hysteresis if kind == "hysteresis" else _old_bifurcation
        name, header, _ = harness.KINDS[kind].write(result, 0)
        assert read(os.path.join(out, name)).decode() == header + "\n" + old(result)


_CHUNK_EDGE_LENGTHS = [0, 1, *(3 * k + d for k in (1, 2, 4) for d in (-1, 0, 1))]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(_CHUNK_EDGE_LENGTHS).flatmap(
           lambda n: arrays(np.float64, n, elements=_AGREEING)),
       st.one_of(st.none(), st.sampled_from(_OUT_OF_RANGE)), st.integers(0, 2), st.data())
def test_chunk_edges_keep_the_bytes(values, bad, start, data):
    # chunks of 3 rows: lengths 0, 1, and one below, at and above a multiple
    # of the chunk; a value out of orjson's range in one chunk only
    if bad is not None and len(values):
        values[data.draw(st.integers(0, len(values) - 1), label="position")] = bad
    chunks = -(-len(values) // 3)
    labels = [("up", "down")[i % 2] for i in range(len(values))]
    with mock.patch.object(harness, "_CHUNK_ROWS", 3), _orjson_spy() as spy:
        assert _written([range(start, start + len(values)), values]) == _old_rows(start, values)
        assert spy.call_count == chunks - (bad is not None and len(values) > 0)
        assert not any(_holds(call.args[0], bad) for call in spy.call_args_list if bad is not None)
        assert _written([values[::-1], values]) == _old_pairs(values[::-1], values)
        assert _written([labels, values, values[::-1]], "sweep,lambda,state") == "".join(
            f"{s},{_fmt(a)},{_fmt(b)}\n" for s, a, b in zip(labels, values, values[::-1]))


def test_a_percent_sign_in_a_header_or_a_cell_is_written_as_it_is():
    # the header and the cells are arguments of the chunk's template, never part of it
    values = np.array([0.5, 0.25])
    assert _written([range(2), values], "step,%d%%b") == "0,0.5\n1,0.25\n"
    assert _written([["%s", "%b%%"], values, values], "a%,b,c") == "%s,0.5,0.5\n%b%%,0.25,0.25\n"


def test_run_scenario_martingale_summary(tmp_path):
    doc = netgrowth_doc(str(tmp_path / "mg"), replicates=300, n_nodes=400)
    _, summary, _ = run_scenario(load_config(json.dumps(doc)))
    stats = summary["final_agi_share"]
    assert stats.mean == pytest.approx(2.0 / 3.0, abs=max(0.04, 2 * stats.ci95))
    assert stats.n == 300


def test_run_scenario_single_replicate_zero_std(tmp_path):
    doc = {
        "kind": "replicator", "master_seed": 9, "replicates": 1,
        "output_dir": str(tmp_path / "r"),
        "params": {"x0": 0.2, "t_end": 0.5, "p_c": 2, "p_d": 1},
    }
    _, summary, _ = run_scenario(load_config(json.dumps(doc)))
    assert summary["final_x"].std == 0.0


@pytest.mark.parametrize("kind", sorted(DETERMINISM_DOCS))
def test_manifest_digests_match_files(tmp_path, kind):
    # digests are taken from the bytes in memory; they must equal the files
    overrides = DETERMINISM_DOCS[kind]
    out = str(tmp_path / "digest")
    doc = {"kind": kind, "master_seed": 1234, "replicates": overrides.get("replicates", 2),
           "output_dir": out, "params": overrides["params"]}
    _, _, manifest = run_scenario(load_config(json.dumps(doc)))
    assert sorted(os.listdir(out)) == sorted([*manifest.files, "manifest.json"])
    for name, digest in manifest.files.items():
        assert hashlib.sha256(read(os.path.join(out, name))).hexdigest() == digest
    with open(os.path.join(out, "manifest.json"), encoding="utf-8") as fh:
        assert json.load(fh)["files"] == manifest.files
    # timestamps live only in the manifest
    assert manifest.started <= manifest.finished


def test_manifest_config_echo_shares_nothing_with_the_config(tmp_path):
    config = load_config(json.dumps(netgrowth_doc(str(tmp_path / "echo"), replicates=1)))
    _, _, manifest = run_scenario(config)
    assert manifest.config == json.loads(serialize_config(config))
    manifest.config["params"]["n_nodes"] = 7
    assert config.params["n_nodes"] == 200


def test_data_files_have_documented_schemas(tmp_path):
    doc = netgrowth_doc(str(tmp_path / "schema"), replicates=1)
    run_scenario(load_config(json.dumps(doc)))
    first = read(os.path.join(doc["output_dir"], "shares_0000.csv")).decode().splitlines()[0]
    assert first == "step,agi_share"

    hyst = {
        "kind": "hysteresis", "master_seed": 0, "replicates": 1,
        "output_dir": str(tmp_path / "h"),
        "params": {"theta": -1.0, "lambda_lo": -0.1, "lambda_hi": 0.1, "step": 0.05},
    }
    run_scenario(load_config(json.dumps(hyst)))
    first = read(os.path.join(hyst["output_dir"], "hysteresis.csv")).decode().splitlines()[0]
    assert first == "sweep,lambda,state"

    bif = {
        "kind": "bifurcation", "master_seed": 0, "replicates": 1,
        "output_dir": str(tmp_path / "bif"),
        "params": {"theta": 1.0, "lambda_lo": -0.2, "lambda_hi": 0.2, "step": 0.1,
                   "grid_n": 256},
    }
    run_scenario(load_config(json.dumps(bif)))
    lines = read(os.path.join(bif["output_dir"], "bifurcation.csv")).decode().splitlines()
    assert lines[0] == "lambda,root,stability"
    assert all(line.count(",") == 2 for line in lines[1:])


def test_write_outputs_empty_traces(tmp_path):
    assert write_outputs("netgrowth", [], str(tmp_path / "empty")) == {}


@pytest.mark.parametrize("finished", [False, True], ids=["fresh", "finished"])
@pytest.mark.parametrize("error", [
    lambda: OSError(errno.ENOSPC, "No space left on device"),
    KeyboardInterrupt,
], ids=["enospc", "interrupt"])
@pytest.mark.parametrize("fail_at", [
    "shares_0000.csv", "shares_0002.csv", "summary.csv", "manifest.json",
])
def test_failed_write_removes_what_the_run_wrote(tmp_path, monkeypatch, finished, error, fail_at):
    out = tmp_path / "run"
    if finished:
        # a finished 4-replicate run, plus a file no manifest lists
        run_scenario(load_config(json.dumps(netgrowth_doc(str(out), replicates=4, n_nodes=50))))
        (out / "notes.txt").write_text("mine\n")

    def failing_open(path, mode="r", *args, **kwargs):
        """Creates the file, then fails as a full disk or an interrupt would;
        a data file is written under a temporary name that starts with its own."""
        fh = open(path, mode, *args, **kwargs)
        if "r" not in mode and os.path.basename(path).startswith(fail_at):
            fh.close()
            raise error()
        return fh

    monkeypatch.setattr(harness, "open", failing_open, raising=False)
    doc = netgrowth_doc(str(out), replicates=3, n_nodes=50, master_seed=7)
    with pytest.raises((OSError, KeyboardInterrupt)):
        run_scenario(load_config(json.dumps(doc)))
    # nothing this run created stays, and neither does a manifest whose files
    # or digests no longer hold; the unlisted notes.txt is untouched
    left = sorted(os.listdir(out)) if out.exists() else []
    assert left == (["notes.txt"] if finished else [])
    if finished:
        assert (out / "notes.txt").read_text() == "mine\n"


def test_rerun_trusts_no_file_of_a_manifest_that_lists_a_foreign_name(tmp_path):
    # report refuses such a manifest, and the cleanup reads it by the same rule
    out = tmp_path / "run"
    run_scenario(load_config(json.dumps(netgrowth_doc(str(out), replicates=4, n_nodes=50))))
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["files"]["../elsewhere.csv"] = "0" * 64
    (out / "manifest.json").write_text(json.dumps(manifest))
    run_scenario(load_config(json.dumps(netgrowth_doc(str(out), replicates=2, n_nodes=50))))
    assert (out / "shares_0003.csv").exists()


@pytest.mark.parametrize("blocker", ["enospc", "directory"])
def test_failed_run_keeps_the_bytes_of_an_unlisted_file(tmp_path, monkeypatch, blocker):
    # no manifest lists shares_0000.csv; the failed run would have replaced it
    out = tmp_path / "run"
    out.mkdir()
    (out / "shares_0000.csv").write_text("mine\n")
    if blocker == "directory":
        (out / "summary.csv").mkdir()  # in the way of the last file committed
    else:
        def failing_open(path, mode="r", *args, **kwargs):
            if "r" not in mode and os.path.basename(path).startswith("summary.csv"):
                raise OSError(errno.ENOSPC, "No space left on device")
            return open(path, mode, *args, **kwargs)

        monkeypatch.setattr(harness, "open", failing_open, raising=False)
    before = sorted(os.listdir(out))
    with pytest.raises(OSError):
        run_scenario(load_config(json.dumps(netgrowth_doc(str(out), replicates=3, n_nodes=50))))
    assert sorted(os.listdir(out)) == before
    assert (out / "shares_0000.csv").read_text() == "mine\n"


def counting_runner(monkeypatch, fail_at=None):
    """Swaps netgrowth's runner for one that raises instead of yielding
    replicate ``fail_at``; returns the indices it yields and an event that
    is set when it raises."""
    kind = harness.KINDS["netgrowth"]
    drawn, failed = [], threading.Event()

    def run(model, master_seed, indices):
        for i, result in zip(indices, kind.run(model, master_seed, indices)):
            if i == fail_at:
                failed.set()
                raise RuntimeError(f"runner failed at replicate {i}")
            drawn.append(i)
            yield result

    monkeypatch.setitem(harness.KINDS, "netgrowth", replace(kind, run=run))
    return drawn, failed


@pytest.mark.parametrize("kind, writers", [("netgrowth", 2), ("abm", 2), ("basin", 1)])
def test_one_writer_thread_per_slice_and_none_left(tmp_path, monkeypatch, kind, writers):
    # one for the slice's trace files, none for basin, which writes none, and one for summary.csv
    started = []
    writer = harness._writer
    monkeypatch.setattr(harness, "_writer", lambda *args: started.append(1) or writer(*args))
    threads = threading.active_count()
    doc = {"kind": kind, "master_seed": 42, "replicates": 3, "output_dir": str(tmp_path / "run"),
           "params": DETERMINISM_DOCS[kind]["params"]}
    _, _, manifest = run_scenario(load_config(json.dumps(doc)))
    assert threading.active_count() == threads
    assert len(started) == writers
    for name, digest in manifest.files.items():
        assert hashlib.sha256(read(tmp_path / "run" / name)).hexdigest() == digest


@pytest.mark.parametrize("chunk_rows", [harness._CHUNK_ROWS, 3], ids=["one-chunk", "three-row-chunks"])
def test_concurrent_writers_under_a_short_switch_interval(tmp_path, monkeypatch, chunk_rows):
    # three calls, each with its own writer thread, on two cores, switching threads every microsecond;
    # with three-row chunks every file is many chunks, and its rows end one below, at and one above
    # a chunk edge, so each call hands over the first chunk of a file right after the last of the one before
    traces = [netgrowth.grow(netgrowth.GrowthConfig(n_nodes=299 + s % 3, seed_agi=2, seed_dci=1, rng_seed=s))
              for s in range(12)]
    expected = {os.path.basename(path): read(path)
                for path in write_outputs("netgrowth", traces, str(tmp_path / "serial"))}
    monkeypatch.setattr(harness, "_CHUNK_ROWS", chunk_rows)
    results = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        calls = [threading.Thread(target=lambda k=k: results.__setitem__(
            k, write_outputs("netgrowth", traces, str(tmp_path / f"call{k}")))) for k in range(3)]
        for call in calls:
            call.start()
        for call in calls:
            call.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert sorted(results) == [0, 1, 2]
    for k, digests in results.items():
        assert [os.path.basename(path) for path in digests] == list(expected)
        for path, digest in digests.items():
            assert read(path) == expected[os.path.basename(path)]
            assert hashlib.sha256(read(path)).hexdigest() == digest


def test_runner_error_waits_for_the_file_in_flight(tmp_path, monkeypatch):
    # the writer is still closing replicate 1's file when the runner fails at replicate 2
    drawn, failed = counting_runner(monkeypatch, fail_at=2)

    class SlowClose:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self.fh

        def __exit__(self, *exc):
            failed.wait(10)
            time.sleep(0.3)
            self.fh.close()

    def slow_open(path, mode="r", *args, **kwargs):
        fh = open(path, mode, *args, **kwargs)
        if "r" not in mode and os.path.basename(path).startswith("shares_0001.csv"):
            return SlowClose(fh)
        return fh

    monkeypatch.setattr(harness, "open", slow_open, raising=False)
    threads = threading.active_count()
    out = tmp_path / "run"
    with pytest.raises(RuntimeError, match="runner failed at replicate 2"):
        run_scenario(load_config(json.dumps(netgrowth_doc(str(out), replicates=4, n_nodes=50))))
    assert drawn == [0, 1]
    assert threading.active_count() == threads
    assert os.listdir(out) == []


def test_failed_open_stops_the_simulation(tmp_path, monkeypatch):
    # shares_0001's open fails: replicate 2 may be simulated, none after it
    drawn, _ = counting_runner(monkeypatch)

    def failing_open(path, mode="r", *args, **kwargs):
        if "r" not in mode and os.path.basename(path).startswith("shares_0001.csv"):
            raise OSError(errno.ENOSPC, "No space left on device")
        return open(path, mode, *args, **kwargs)

    monkeypatch.setattr(harness, "open", failing_open, raising=False)
    threads = threading.active_count()
    out = tmp_path / "run"
    with pytest.raises(OSError) as info:
        run_scenario(load_config(json.dumps(netgrowth_doc(str(out), replicates=8, n_nodes=50))))
    assert info.value.errno == errno.ENOSPC
    assert drawn in ([0, 1], [0, 1, 2])
    assert threading.active_count() == threads
    assert os.listdir(out) == []


def test_replicator_game_mode_matches_constant_payoffs(tmp_path):
    # r=sg and t=pu make the matrix payoffs constant in x
    shared = {"x0": 0.2, "t_end": 2.0, "dt": 0.01}
    game_doc = {
        "kind": "replicator", "master_seed": 0, "replicates": 1,
        "output_dir": str(tmp_path / "game"),
        "params": {**shared, "game": {"r": 1, "sg": 1, "t": 2, "pu": 2}},
    }
    const_doc = {
        "kind": "replicator", "master_seed": 0, "replicates": 1,
        "output_dir": str(tmp_path / "const"),
        "params": {**shared, "p_c": 1, "p_d": 2},
    }
    run_scenario(load_config(json.dumps(game_doc)))
    run_scenario(load_config(json.dumps(const_doc)))
    a = read(os.path.join(game_doc["output_dir"], "trajectory_0000.csv"))
    b = read(os.path.join(const_doc["output_dir"], "trajectory_0000.csv"))
    assert a == b


def test_run_scenario_abm_and_basin_metrics(tmp_path):
    abm_doc = {
        "kind": "abm", "master_seed": 3, "replicates": 3,
        "output_dir": str(tmp_path / "abm"),
        "params": {"n": 40, "x0": 1.0, "rounds": 4,
                   "game": {"r": 1, "sg": 0, "t": 0, "pu": 1}},
    }
    _, summary, _ = run_scenario(load_config(json.dumps(abm_doc)))
    assert summary["outcome_dci_first"].mean == 1.0
    assert os.path.exists(os.path.join(abm_doc["output_dir"], "abm_0002.csv"))

    basin_doc = {
        "kind": "basin", "master_seed": 3, "replicates": 4,
        "output_dir": str(tmp_path / "basin"),
        "params": {"n": 40, "x0_list": [0.0, 1.0], "rounds": 4,
                   "game": {"r": 1, "sg": 0, "t": 0, "pu": 1}},
    }
    _, summary, manifest = run_scenario(load_config(json.dumps(basin_doc)))
    assert summary["agi_first[x0=0.0]"].mean == 1.0
    assert summary["dci_first[x0=1.0]"].mean == 1.0
    # basin emits summary + manifest only
    assert set(manifest.files) == {"summary.csv"}


def test_basin_matches_module_op(tmp_path):
    from attractorlab import abm as abm_mod

    doc = {
        "kind": "basin", "master_seed": 17, "replicates": 5,
        "output_dir": str(tmp_path / "basin_eq"),
        "params": {"n": 60, "x0_list": [0.3, 0.7], "rounds": 8,
                   "game": {"r": 1, "sg": 0, "t": 0, "pu": 1}},
    }
    _, summary, _ = run_scenario(load_config(json.dumps(doc)))
    template = abm_mod.AbmConfig(
        n=60, x0=0.5, game=abm_mod.GameMatrix(1, 0, 0, 1), rounds=8, rng_seed=17
    )
    counts = abm_mod.basin_experiment(template, [0.3, 0.7], 5)
    for x0 in (0.3, 0.7):
        for outcome in ("agi_first", "dci_first", "undecided"):
            assert summary[f"{outcome}[x0={x0!r}]"].mean * 5 == counts[x0][outcome]


def test_scenario_config_is_value_like():
    doc = netgrowth_doc("x")
    a = load_config(json.dumps(doc))
    b = load_config(json.dumps(doc))
    assert a == b
    assert isinstance(a, ScenarioConfig)


def test_imported_graph_read_once_per_run(tmp_path, monkeypatch):
    from attractorlab import abm as abm_mod

    edges = tmp_path / "ring.edges"
    edges.write_text("0 1\n1 2\n2 3\n3 4\n4 5\n5 0\n")
    calls = []
    load = abm_mod.load_edge_list
    monkeypatch.setattr(abm_mod, "load_edge_list", lambda text: calls.append(1) or load(text))
    doc = {
        "kind": "abm", "master_seed": 5, "replicates": 4,
        "output_dir": str(tmp_path / "abm"),
        "params": {"n": 6, "x0": 0.5, "rounds": 3,
                   "game": {"r": 1, "sg": 0, "t": 0, "pu": 1},
                   "topology": {"kind": "imported", "path": str(edges)}},
    }
    config = load_config(json.dumps(doc))
    run_scenario(config)
    assert len(calls) == 1
    # the compiled graph stays out of the config echo
    assert json.loads(serialize_config(config))["params"]["topology"] == doc["params"]["topology"]


def test_replace_rebuilds_the_model(tmp_path):
    config = load_config(json.dumps(netgrowth_doc(str(tmp_path / "a"), replicates=1, n_nodes=50)))
    smaller = replace(config, params={**config.params, "n_nodes": 5})
    _, _, manifest = run_scenario(smaller)
    rows = read(os.path.join(smaller.output_dir, "shares_0000.csv")).decode().splitlines()
    assert len(rows) == 1 + 5
    assert manifest.config["params"]["n_nodes"] == 5
    with pytest.raises(ConfigError, match="n_nodes"):
        replace(config, params={**config.params, "n_nodes": 0})


def test_worker_count_capped_by_cores_and_replicates(tmp_path, monkeypatch):
    started = []

    class SerialPool:
        """Records the worker count it is asked for and maps in-process."""

        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize=1):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    config = load_config(json.dumps(netgrowth_doc(str(tmp_path / "x"), replicates=5, n_nodes=20)))
    for cores, jobs in ((3, 5000), (3, 2), (8, 5000), (3, 1), (None, 4)):
        monkeypatch.setattr(harness.os, "cpu_count", lambda cores=cores: cores)
        run_scenario(config, jobs=jobs)
    # capped at the cores, then at the replicates; one worker runs in-process
    assert started == [3, 2, 5]

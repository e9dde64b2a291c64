"""Scenario configs, seeded replication, aggregation and persistence.

A scenario is a JSON document with required keys ``kind``, ``master_seed``
and ``replicates``, an optional non-empty ``output_dir`` (default ``out``) and a
``params`` block holding exactly the target model's parameters.  Unknown
keys are rejected so experiment typos fail loudly.  Defaults live only in
this loader (taken from the model modules) and are filled in at load time,
so a loaded config is fully explicit.

Each scenario kind is one entry of ``KINDS``: its params schema, the build
step, the replicate runner, metrics, CSV writer, seed streams per
replicate and whether the kind is deterministic.  A build step only
constructs model objects, whose modules own and check the value rules; it
runs whenever a config is created, so an imported graph is read, validated
and compiled there once, and every replicate reuses it.

Replicate ``i`` draws from the stream seeded by ``mix64(master_seed, i)``;
the ``basin`` kind consumes one stream per (replicate, x0) cell, indexed
flat.  Given (config, master_seed), every emitted data byte is reproducible;
wall-clock timestamps live only in the manifest.

Outputs are small CSV files (diff-able, golden-testable) plus a
``manifest.json`` carrying the config echo, per-replicate seeds, numerical
diagnostics and sha256 digests of every emitted file, taken from the bytes
as they are written.  The process that runs a replicate also formats, hashes
and writes its file, under a temporary name, and hands the parent only a
``ReplicateRecord`` (metric values, diagnostic counts, digests), so memory
does not grow with the traces.  Files are renamed to their final names only
once all are written, then the manifest is written; a failed run cleans up
by the rule in ``run_scenario``.
"""

from __future__ import annotations

import copy
import errno
import functools
import hashlib
import json
import math
import operator
import os
import re
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields, replace
from datetime import datetime, timezone
from itertools import repeat

from . import __version__, abm, dynamics, netgrowth
from .rng import mix64

_MAX_SEED = (1 << 64) - 1


class ConfigError(ValueError):
    """Malformed or invalid scenario configuration."""


@dataclass(frozen=True)
class SummaryStats:
    mean: float
    std: float
    min: float
    max: float
    ci95: float
    n: int


@dataclass(frozen=True)
class RunManifest:
    config: dict
    version: str
    started: str
    finished: str
    replicate_seeds: tuple[int, ...]
    files: dict[str, str]
    diagnostics: dict[str, int] = field(default_factory=dict)


@dataclass(frozen=True)
class ScenarioConfig:
    """A validated scenario.

    ``model`` is the params built into model objects.  It is built whenever
    a config is created, ``dataclasses.replace`` included, so it always
    matches ``params``; it takes no part in equality and is never serialized.
    """

    kind: str
    master_seed: int
    replicates: int
    output_dir: str
    params: dict
    model: object = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if not 0 <= self.master_seed <= _MAX_SEED:
            raise ConfigError("master_seed must be a 64-bit unsigned integer")
        if self.replicates < 1:
            raise ConfigError(f"replicates must be >= 1, got {self.replicates}")
        if not self.output_dir:
            raise ConfigError("output_dir must be a non-empty path")
        spec = KINDS[self.kind]
        if spec.deterministic and self.replicates != 1:
            raise ConfigError(f"{self.kind} scenarios are deterministic; use replicates=1")
        try:
            model = spec.build(self.params)
        except (ValueError, TypeError) as exc:  # ConfigError included
            raise ConfigError(f"invalid {self.kind} params: {exc}") from None
        object.__setattr__(self, "model", model)


# ---------------------------------------------------------------------------
# Config loading
# ---------------------------------------------------------------------------

def _as_int(value, field: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"field {field!r} must be an integer, got {value!r}")
    return value


def _as_float(value, field: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"field {field!r} must be a number, got {value!r}")
    return float(value)


def _as_str(value, field: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"field {field!r} must be a string, got {value!r}")
    return value


_REQUIRED = object()
_OPTIONAL = object()  # left out of the loaded params when absent


def _take(raw, spec: dict, where: str) -> dict:
    if not isinstance(raw, dict):
        raise ConfigError(f"{where} must be an object, got {raw!r}")
    unknown = set(raw) - set(spec)
    if unknown:
        raise ConfigError(f"unknown {where} key(s): {sorted(unknown)}")
    out = {}
    for key, (cast, default) in spec.items():
        if key in raw:
            out[key] = cast(raw[key], key)
        elif default is _REQUIRED:
            raise ConfigError(f"missing required {where} key {key!r}")
        elif default is not _OPTIONAL:
            out[key] = default
    return out


def _default(cls, name: str):
    """Default of a model dataclass field, so the loader never restates it."""
    return next(f.default for f in fields(cls) if f.name == name)


def _norm_game(raw, field: str) -> dict:
    return _take(raw, {k: (_as_float, _REQUIRED) for k in ("r", "sg", "t", "pu")}, field)


def _variant(specs: dict):
    """Cast for an object whose ``kind`` selects one of ``specs``."""

    def cast(raw, field: str) -> dict:
        kind = raw.get("kind") if isinstance(raw, dict) else None
        if not isinstance(kind, str) or kind not in specs:
            raise ConfigError(f"field {field!r} needs a 'kind' out of {sorted(specs)}, got {raw!r}")
        return _take(raw, {"kind": (_as_str, _REQUIRED), **specs[kind]}, field)

    return cast


def _norm_x0_list(raw, field: str) -> list:
    if not isinstance(raw, list) or not raw:
        raise ConfigError(f"field {field!r} must be a non-empty list of numbers")
    return [_as_float(v, field) for v in raw]


def parse_json(text: str):
    """JSON value of a config text; a syntax error names its line and column."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None


def load_config(text: str) -> ScenarioConfig:
    """Parse and fully validate a JSON scenario; defaults are filled in and
    the params are built into model objects once."""
    top = _take(parse_json(text), {
        "kind": (_as_str, _REQUIRED),
        "master_seed": (_as_int, _REQUIRED),
        "replicates": (_as_int, _REQUIRED),
        "output_dir": (_as_str, "out"),
        "params": (lambda value, field: value, {}),
    }, "config")
    kind = top["kind"]
    if kind not in KINDS:
        raise ConfigError(f"unknown scenario kind {kind!r}; expected one of {tuple(KINDS)}")
    params = _take(top["params"], KINDS[kind].schema, f"{kind} params")
    return ScenarioConfig(kind, top["master_seed"], top["replicates"], top["output_dir"], params)


def _config_doc(config: ScenarioConfig) -> dict:
    """The config as plain data, a copy that shares nothing with the config."""
    return copy.deepcopy({f.name: getattr(config, f.name) for f in fields(config) if f.name != "model"})


def serialize_config(config: ScenarioConfig) -> str:
    return json.dumps(_config_doc(config), sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Scenario kinds: params -> model objects -> replicate results -> files
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return repr(float(x))


def _build_replicator(params: dict) -> dynamics.OdeSpec:
    if "game" in params:
        if "p_c" in params or "p_d" in params:
            raise ConfigError("give either p_c/p_d or game, not both")
        payoffs = dynamics.PayoffSpec.from_game(abm.GameMatrix(**params["game"]))
    elif "p_c" in params and "p_d" in params:
        payoffs = dynamics.PayoffSpec.constant(params["p_c"], params["p_d"])
    else:
        raise ConfigError("constant payoffs need both p_c and p_d")
    spec = dynamics.OdeSpec(
        rhs=dynamics.ReplicatorRhs(payoffs),
        x0=params["x0"],
        dt=params["dt"],
        t_end=params["t_end"],
    )
    spec.validate()
    return spec


def _build_growth(params: dict) -> netgrowth.GrowthConfig:
    cfg = netgrowth.GrowthConfig(**params)
    cfg.validate()
    return cfg


def _build_topology(topo: dict, n: int) -> abm.Topology:
    if topo["kind"] == "well_mixed":
        return abm.WellMixed()
    if topo["kind"] == "ring_lattice":
        return abm.RingLattice(topo["k"])
    try:
        with open(topo["path"], encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read topology file {topo['path']!r}: {exc}") from None
    return abm.Imported(abm.load_edge_list(text), n)


def _build_abm(params: dict) -> tuple[abm.AbmConfig, float, float]:
    """Validated template config (seed 0) plus the outcome thresholds."""
    update = params["update"]
    cfg = abm.AbmConfig(
        n=params["n"],
        x0=params["x0"],
        game=abm.GameMatrix(**params["game"]),
        topology=_build_topology(params["topology"], params["n"]),
        update=(abm.Fermi(update["beta"]) if update["kind"] == "fermi"
                else abm.ProportionalImitation()),
        noise=params["noise"],
        rounds=params["rounds"],
    )
    cfg.validate()
    abm.check_thresholds(params["s_c"], params["s_d"])
    return cfg, params["s_c"], params["s_d"]


def _build_basin(params: dict) -> tuple[abm.AbmConfig, float, float, tuple[float, ...]]:
    abm.check_x0(*params["x0_list"])
    cfg, s_c, s_d = _build_abm({**params, "x0": params["x0_list"][0]})
    return cfg, s_c, s_d, tuple(params["x0_list"])


def _run_abm(model, master_seed: int, index: int) -> abm.AbmTrace:
    cfg, s_c, s_d = model
    return abm.run(replace(cfg, rng_seed=mix64(master_seed, index)), s_c, s_d)


def _run_basin(model, master_seed: int, index: int) -> tuple[str, ...]:
    cfg, s_c, s_d, x0_list = model
    template = replace(cfg, rng_seed=master_seed)
    return tuple(abm.basin_replicate(template, x0_list, index, s_c, s_d))


def _abm_metrics(params: dict, trace) -> dict[str, float]:
    out = {"final_coop_fraction": float(trace.coop_fraction[-1])}
    for outcome in (abm.OUTCOME_AGI, abm.OUTCOME_DCI, abm.OUTCOME_UNDECIDED):
        out[f"outcome_{outcome}"] = float(trace.outcome == outcome)
    return out


def _basin_metrics(params: dict, row) -> dict[str, float]:
    # one indicator per (outcome, x0) cell
    out = {}
    for x0, cell in zip(params["x0_list"], row):
        for outcome in (abm.OUTCOME_AGI, abm.OUTCOME_DCI, abm.OUTCOME_UNDECIDED):
            out[f"{outcome}[x0={float(x0)!r}]"] = float(cell == outcome)
    return out


@functools.lru_cache(maxsize=4)
def _counter(start: int, n: int) -> tuple[str, ...]:
    """``"<start>,"`` .. ``"<start+n-1>,"``: an integer column, built once per process."""
    return tuple(f"{i}," for i in range(start, start + n))


def _counted(start: int, values) -> map:
    """Lines ``"<i>,<repr(v)>"`` of a float array, ``i`` counting from ``start``."""
    return map(operator.add, _counter(start, len(values)), map(repr, values.tolist()))


@dataclass(frozen=True)
class _Kind:
    """Everything the harness knows about one scenario kind."""

    schema: dict  # params key -> (cast, default), see ``_take``
    build: Callable  # params -> model object; runs whenever a config is created
    run: Callable  # (model, master_seed, replicate index) -> result
    metrics: Callable  # (params, result) -> {metric name: value}, same keys for every result
    write: Callable | None  # (result, index) -> (file name, header, CSV lines)
    streams: Callable = lambda params: 1  # seed streams per replicate
    deterministic: bool = False  # replicates must be 1
    diagnostics: Callable = lambda result: {}  # result -> counts, same keys for every result


_SWEEP = {
    "theta": (_as_float, _REQUIRED),
    "lambda_lo": (_as_float, _REQUIRED),
    "lambda_hi": (_as_float, _REQUIRED),
    "step": (_as_float, _REQUIRED),
}

_POPULATION = {
    "n": (_as_int, _REQUIRED),
    "game": (_norm_game, _REQUIRED),
    "rounds": (_as_int, _REQUIRED),
    "topology": (_variant({
        "well_mixed": {},
        "ring_lattice": {"k": (_as_int, _REQUIRED)},
        "imported": {"path": (_as_str, _REQUIRED)},
    }), {"kind": "well_mixed"}),
    "update": (_variant({
        "proportional_imitation": {},
        "fermi": {"beta": (_as_float, _REQUIRED)},
    }), {"kind": "proportional_imitation"}),
    "noise": (_as_float, _default(abm.AbmConfig, "noise")),
    "s_c": (_as_float, abm.DEFAULT_S_C),
    "s_d": (_as_float, abm.DEFAULT_S_D),
}

KINDS: dict[str, _Kind] = {
    "replicator": _Kind(
        schema={
            "x0": (_as_float, _REQUIRED),
            "t_end": (_as_float, _REQUIRED),
            "dt": (_as_float, _default(dynamics.OdeSpec, "dt")),
            "p_c": (_as_float, _OPTIONAL),
            "p_d": (_as_float, _OPTIONAL),
            "game": (_norm_game, _OPTIONAL),
        },
        build=_build_replicator,
        run=lambda spec, master_seed, index: dynamics.integrate(spec),
        metrics=lambda params, t: {"final_x": float(t.states[-1])},
        write=lambda t, i: (
            f"trajectory_{i:04d}.csv", "t,x",
            map("%r,%r".__mod__, zip(t.times.tolist(), t.states.tolist())),
        ),
    ),
    "bifurcation": _Kind(
        schema={**_SWEEP, "grid_n": (_as_int, dynamics.DEFAULT_GRID_N)},
        build=lambda params: dynamics.check_bifurcation(**params) or params,
        run=lambda params, master_seed, index: dynamics.sweep_bifurcation(**params),
        metrics=lambda params, sweep: {
            "max_stable_roots": float(max(rep.stable_count() for _, rep in sweep)),
            "min_stable_roots": float(min(rep.stable_count() for _, rep in sweep)),
        },
        write=lambda sweep, i: (
            "bifurcation.csv", "lambda,root,stability",
            [f"{_fmt(lam)},{_fmt(root.location)},{root.stability}"
             for lam, rep in sweep for root in rep.roots],
        ),
        deterministic=True,
    ),
    "hysteresis": _Kind(
        schema={
            **_SWEEP,
            "relax_t": (_as_float, dynamics.DEFAULT_RELAX_T),
            "relax_dt": (_as_float, dynamics.DEFAULT_RELAX_DT),
            "jump_tol": (_as_float, dynamics.DEFAULT_JUMP_TOL),
        },
        build=lambda params: dynamics.check_hysteresis(**params) or params,
        run=lambda params, master_seed, index: dynamics.hysteresis_loop(**params),
        metrics=lambda params, report: {
            "loop_area": report.loop_area,
            "jumps_up": float(len(report.jumps_up)),
            "jumps_down": float(len(report.jumps_down)),
        },
        write=lambda report, i: (
            "hysteresis.csv", "sweep,lambda,state",
            [f"{sweep},{_fmt(lam)},{_fmt(state)}"
             for sweep, branch in (("up", report.up_branch), ("down", report.down_branch))
             for lam, state in branch],
        ),
        deterministic=True,
        diagnostics=lambda report: {"non_equilibrated": len(report.non_equilibrated)},
    ),
    "netgrowth": _Kind(
        schema={
            "n_nodes": (_as_int, _REQUIRED),
            "m": (_as_int, _default(netgrowth.GrowthConfig, "m")),
            "seed_agi": (_as_int, _default(netgrowth.GrowthConfig, "seed_agi")),
            "seed_dci": (_as_int, _default(netgrowth.GrowthConfig, "seed_dci")),
            "mode": (_as_str, _default(netgrowth.GrowthConfig, "mode")),
            "dci_boost": (_as_float, _default(netgrowth.GrowthConfig, "dci_boost")),
            "tau": (_as_float, _default(netgrowth.GrowthConfig, "tau")),
        },
        build=_build_growth,
        run=lambda cfg, master_seed, index: netgrowth.grow(
            replace(cfg, rng_seed=mix64(master_seed, index))
        ),
        metrics=lambda params, t: {
            "final_agi_share": float(t.shares[-1]),
            "agi_lockin": float(t.locked_in == netgrowth.LOCKED_AGI),
            "dci_lockin": float(t.locked_in == netgrowth.LOCKED_DCI),
        },
        write=lambda t, i: (f"shares_{i:04d}.csv", "step,agi_share", _counted(1, t.shares)),
    ),
    "abm": _Kind(
        schema={**_POPULATION, "x0": (_as_float, _REQUIRED)},
        build=_build_abm,
        run=_run_abm,
        metrics=_abm_metrics,
        write=lambda t, i: (f"abm_{i:04d}.csv", "round,coop_fraction", _counted(0, t.coop_fraction)),
    ),
    # basin outcome rows have no trace file, they only feed summary.csv
    "basin": _Kind(
        schema={**_POPULATION, "x0_list": (_norm_x0_list, _REQUIRED)},
        build=_build_basin,
        run=_run_basin,
        metrics=_basin_metrics,
        write=None,
        streams=lambda params: len(params["x0_list"]),
    ),
}


@dataclass(frozen=True, slots=True)
class ReplicateRecord:
    """What the parent keeps of one replicate: its metric values, its
    diagnostic counts and the sha256 of each data file it wrote."""

    metrics: dict[str, float]
    diagnostics: dict[str, int]
    files: dict[str, str]  # file name -> sha256


def _replicate(config: ScenarioConfig, index: int, suffix: str) -> ReplicateRecord:
    """Run one replicate and write its data file under its name plus
    ``suffix``; top-level so process pools can pickle it.  The result is
    dropped here, so no trace outlives its file."""
    spec = KINDS[config.kind]
    result = spec.run(config.model, config.master_seed, index)
    written = write_outputs(config.kind, [result], config.output_dir, index, suffix)
    return ReplicateRecord(
        metrics=spec.metrics(config.params, result),
        diagnostics=spec.diagnostics(result),
        files={os.path.basename(path).removesuffix(suffix): digest
               for path, digest in written.items()},
    )


def aggregate(values) -> SummaryStats:
    """Mean/std/min/max with a 95% normal CI halfwidth; exact summation so
    the result is independent of accumulation order."""
    vals = [float(v) for v in values]
    if not vals:
        raise ValueError("cannot aggregate an empty metric series")
    n = len(vals)
    mean = math.fsum(vals) / n
    if n > 1:
        var = math.fsum((v - mean) ** 2 for v in vals) / (n - 1)
        std = math.sqrt(var)
    else:
        std = 0.0
    ci95 = 1.96 * std / math.sqrt(n)
    return SummaryStats(mean, std, min(vals), max(vals), ci95, n)


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

def _write_data(path: str, header: str, lines) -> str:
    """Write one CSV file in a single call; returns the sha256 of its bytes."""
    data = "\n".join([header, *lines, ""]).encode()
    with open(path, "wb") as fh:
        fh.write(data)
    return hashlib.sha256(data).hexdigest()


def write_outputs(kind: str, traces, out_dir: str, start: int = 0, suffix: str = "") -> dict[str, str]:
    """Emit one CSV per trace in the schema of ``kind``, numbered from
    ``start``, each named with ``suffix`` appended; returns the sha256 of
    each file written, keyed by the path written.

    Basin outcome rows have no trace file, they only feed summary.csv.
    """
    os.makedirs(out_dir, exist_ok=True)
    write = KINDS[kind].write
    digests: dict[str, str] = {}
    for i, item in enumerate(traces if write else (), start):
        name, header, lines = write(item, i)
        path = os.path.join(out_dir, name + suffix)
        digests[path] = _write_data(path, header, lines)
    return digests


def _unlink(path: str) -> None:
    """Remove a file; a name that is gone or is not a removable file stays."""
    try:
        os.unlink(path)
    except OSError:
        pass


def _listed_files(manifest_path: str) -> set[str]:
    """Data file names an existing manifest lists (bare names only); empty
    when there is no readable manifest."""
    try:
        with open(manifest_path, encoding="utf-8") as fh:
            files = json.load(fh)["files"]
    except (OSError, ValueError, KeyError, TypeError):
        return set()
    if not isinstance(files, dict):
        return set()
    return {name for name in files
            if name == os.path.basename(name) and name not in ("", ".", "..", "manifest.json")}


def run_scenario(
    config: ScenarioConfig, jobs: int = 1
) -> tuple[list[ReplicateRecord], dict[str, SummaryStats], RunManifest]:
    """Run all replicates, commit their data files, then write the manifest.

    Each replicate writes and hashes its own file under a temporary name in
    the output directory, in the process that computed it, and returns only
    a ``ReplicateRecord``.  Once every data file and ``summary.csv`` is
    written, each is renamed over its final name, and then the manifest is
    written.  Until the renames, no file that was in the directory is
    changed.

    If anything fails, simulation included, every file the run created
    (temporary files too), every file the directory's previous manifest
    listed and ``manifest.json`` are removed, and no other file.  Once the
    new manifest is written, files the previous manifest listed and this run
    did not write are deleted, and so are the ``<name>.tmp<digits>`` files
    that runs killed before their commit left.  At most ``jobs`` worker
    processes run, and never more than the replicates or the cores.  Records
    are gathered in replicate order regardless of ``jobs``, so parallel runs
    emit the same bytes as serial ones.
    """
    started = datetime.now(timezone.utc).isoformat()
    spec = KINDS[config.kind]
    n_rep = config.replicates
    n_streams = n_rep * spec.streams(config.params)
    seeds = tuple(mix64(config.master_seed, i) for i in range(n_streams))

    out = config.output_dir
    manifest_path = os.path.join(out, "manifest.json")
    previous = _listed_files(manifest_path)
    before, stale = set(), []  # stale: temporary files of runs that never committed
    for name in os.listdir(out) if os.path.isdir(out) else ():
        before.add(name)
        if re.fullmatch(r".+\.tmp[0-9]+", name):
            stale.append(name)
    suffix = f".tmp{os.getpid()}"
    args = (repeat(config), range(n_rep), repeat(suffix))
    workers = min(jobs, n_rep, os.cpu_count() or 1)
    try:
        if workers > 1:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                records = list(pool.map(_replicate, *args, chunksize=1))
        else:
            records = list(map(_replicate, *args))

        summary = {name: aggregate([r.metrics[name] for r in records])
                   for name in records[0].metrics}
        diagnostics = {name: sum(r.diagnostics[name] for r in records)
                       for name in records[0].diagnostics}
        files = {name: digest for r in records for name, digest in r.files.items()}
        files["summary.csv"] = _write_data(
            os.path.join(out, "summary.csv" + suffix),
            "metric,mean,std,min,max,ci95,n",
            (f"{name},{_fmt(s.mean)},{_fmt(s.std)},{_fmt(s.min)},{_fmt(s.max)},{_fmt(s.ci95)},{s.n}"
             for name, s in summary.items()),
        )

        # a directory in the way fails the run before any file is replaced
        for name in files:
            path = os.path.join(out, name)
            if os.path.isdir(path):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        for name in files:
            os.replace(os.path.join(out, name + suffix), os.path.join(out, name))
        manifest = RunManifest(
            config=_config_doc(config),
            version=__version__,
            started=started,
            finished=datetime.now(timezone.utc).isoformat(),
            replicate_seeds=seeds,
            files=files,
            diagnostics=diagnostics,
        )
        with open(manifest_path, "w", encoding="utf-8", newline="") as fh:
            json.dump(asdict(manifest), fh, indent=2, sort_keys=True)
            fh.write("\n")
    except BaseException:
        created = (set(os.listdir(out)) if os.path.isdir(out) else set()) - before
        for name in created | previous | {"manifest.json"}:
            _unlink(os.path.join(out, name))
        raise
    for name in (previous - manifest.files.keys()).union(stale):
        _unlink(os.path.join(out, name))
    return records, summary, manifest

"""Scenario configs, seeded replication, aggregation and persistence.

A scenario is a JSON document with required keys ``kind``, ``master_seed``
and ``replicates``, an optional non-empty ``output_dir`` (default ``out``) and a
``params`` block holding exactly the target model's parameters.  Unknown
keys are rejected so experiment typos fail loudly.  Defaults are filled in
at load time, so a loaded config is fully explicit; ``_params_of`` reads a
kind's keys, types and defaults off its model's signature.

Each scenario kind is one entry of ``KINDS``: its params schema, the build
step, the runner of a slice of replicates, metrics, CSV writer, seed
streams per replicate and whether the kind is deterministic.  A build step
only constructs model objects, which check their own value rules; it runs
whenever a config is created, so an imported graph is read, validated and
compiled there once, and every replicate reuses it.

Replicate ``i`` draws from the stream seeded by ``mix64(master_seed, i)``;
the ``basin`` kind consumes one stream per (replicate, x0) cell, indexed
flat.  Given (config, master_seed), every emitted data byte is reproducible;
wall-clock timestamps live only in the manifest.

Outputs are small CSV files (diff-able, golden-testable) plus a
``manifest.json`` carrying the config echo, per-replicate seeds, numerical
diagnostics, the environment (Python version, platform, cores, workers, and
the numpy and orjson versions where the run loaded numpy) and sha256 digests
of every emitted file, taken from the bytes as they are written.  Every float
is spelled as ``repr`` spells it.  This module imports no numpy: a sweep's
columns are tuples or lists of floats, which ``str`` spells.
A call hashes its first MiB with CPython's built-in SHA-256, unless
``hashlib`` is imported already, and the rest with ``hashlib``'s
(``new_sha256``), so a call that writes little never loads OpenSSL;
either gives the same digest.

Each process runs one contiguous slice of the replicates (netgrowth steps
them together, in chunks) and writes each file under a temporary name as
its result comes: the calling thread formats and hashes it in chunks of
rows, and one writer thread per slice opens, writes and closes, with at
most one chunk queued between the two (``_write_files``, the one path that
writes data files).  The parent gets only each slice's metric columns,
diagnostic sums and digests, so its memory grows with neither the traces
nor their length, and by about 0.5 KB per replicate.  Files are renamed to
their final names only once all are written and the writer thread is
joined, then the manifest is written; a failed run cleans up by the rule
in ``run_scenario``.
"""

from __future__ import annotations

import copy
import errno
import functools
import importlib.util
import inspect
import json
import math
import os
import re
import sys
from array import array
from collections import Counter
from collections.abc import Callable
from dataclasses import astuple, dataclass, field, fields, replace
from datetime import datetime, timezone
from itertools import repeat

from . import __version__
from .rng import mix64


def _lazy(name: str):
    """This package's module ``name``, bound now and executed the first time
    one of its attributes is read (``importlib.util.LazyLoader``), so a call
    runs only the model modules of the kind it runs.  One already imported is
    returned as it is."""
    full = f"{__package__}.{name}"
    if full not in sys.modules:
        spec = importlib.util.find_spec(full)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        sys.modules[full] = module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return sys.modules[full]


abm, dynamics, netgrowth = map(_lazy, ("abm", "dynamics", "netgrowth"))

_MAX_SEED = (1 << 64) - 1
# Seed streams of one run (replicates times the kind's streams per replicate),
# checked at load: the parent keeps about 0.5 KB per replicate (seed, metric values,
# file name, digest), 0.5 GB at the limit.  The tests run up to 2,000 replicates, CI 20,000.
MAX_STREAMS = 1_000_000


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
    env: dict = field(default_factory=dict)


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
        streams = self.replicates * spec.streams(self.params)
        if streams > MAX_STREAMS:
            raise ConfigError(f"replicates={self.replicates:,} asks for {streams:,} seed streams, "
                              f"above the limit of {MAX_STREAMS:,}")
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
    try:
        return float(value)
    except OverflowError:  # an int past the float range
        raise ConfigError(f"field {field!r} is too large for a float: an integer of {value.bit_length()} bits") from None


def _as_str(value, field: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"field {field!r} must be a string, got {value!r}")
    return value


REQUIRED = object()  # a schema default that marks a key the config must give
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
        elif default is REQUIRED:
            raise ConfigError(f"missing required {where} key {key!r}")
        elif default is not _OPTIONAL:
            out[key] = default
    return out


_CASTS = {"int": _as_int, "float": _as_float, "str": _as_str}


def _params_of(model, skip=(), **overrides) -> dict:
    """Params schema of ``model``'s signature: a key per parameter not in
    ``skip``, cast by its annotation and REQUIRED unless it has a default;
    an override gives a key's whole ``(cast, default)`` entry."""
    return {name: overrides.get(name) or (_CASTS[p.annotation], REQUIRED if p.default is p.empty else p.default)
            for name, p in inspect.signature(model).parameters.items() if name not in skip}


def _norm_game(raw, field: str) -> dict:
    return _take(raw, {k: (_as_float, REQUIRED) for k in ("r", "sg", "t", "pu")}, field)


def _variant(specs: dict):
    """Cast for an object whose ``kind`` selects one of ``specs``."""

    def cast(raw, field: str) -> dict:
        kind = raw.get("kind") if isinstance(raw, dict) else None
        if not isinstance(kind, str) or kind not in specs:
            raise ConfigError(f"field {field!r} needs a 'kind' out of {sorted(specs)}, got {raw!r}")
        return _take(raw, {"kind": (_as_str, REQUIRED), **specs[kind]}, field)

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
    except ValueError as exc:  # an integer past Python's digit limit
        raise ConfigError(f"config parse error: {exc}") from None


def load_config(text: str) -> ScenarioConfig:
    """Parse and fully validate a JSON scenario; defaults are filled in and
    the params are built into model objects once."""
    top = _take(parse_json(text), {
        "kind": (_as_str, REQUIRED),
        "master_seed": (_as_int, REQUIRED),
        "replicates": (_as_int, REQUIRED),
        "output_dir": (_as_str, "out"),
        "params": (lambda value, field: value, {}),
    }, "config")
    kind = top["kind"]
    if kind not in KINDS:
        raise ConfigError(f"unknown scenario kind {kind!r}; expected one of {tuple(KINDS)}")
    params = _take(top["params"], KINDS[kind].schema(), f"{kind} params")
    return ScenarioConfig(kind, top["master_seed"], top["replicates"], top["output_dir"], params)


def _config_doc(config: ScenarioConfig) -> dict:
    """The config as plain data, a copy that shares nothing with the config."""
    return copy.deepcopy({f.name: getattr(config, f.name) for f in fields(config) if f.name != "model"})


def serialize_config(config: ScenarioConfig) -> str:
    return json.dumps(_config_doc(config), sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Scenario kinds: params -> model objects -> replicate results -> files
# ---------------------------------------------------------------------------

def _build_replicator(params: dict) -> dynamics.OdeSpec:
    game = abm.GameMatrix(**params["game"]) if "game" in params else None
    return dynamics.OdeSpec(
        rhs=dynamics.ReplicatorRhs(params.get("p_c"), params.get("p_d"), game),
        x0=params["x0"],
        dt=params["dt"],
        t_end=params["t_end"],
    )


def _build_topology(topo: dict, n: int) -> abm.Topology:
    if topo["kind"] == "well_mixed":
        return abm.WellMixed()
    if topo["kind"] == "ring_lattice":
        abm.check_ring(topo["k"], n)
        return abm.RingLattice(topo["k"])
    try:
        with open(topo["path"], encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read topology file {topo['path']!r}: {exc}") from None
    return abm.Imported(abm.load_edge_list(text), n)


def _build_abm(params: dict) -> abm.AbmConfig:
    """Template config, seed 0; plain fields pass through by name.  The work
    size is checked first, and a ring's degree before its offsets are built:
    an imported graph's arrays are sized by n, a ring's offsets by k."""
    abm.check_size(params["n"], params["rounds"])
    update = params["update"]
    return abm.AbmConfig(**{
        **params,
        "game": abm.GameMatrix(**params["game"]),
        "topology": _build_topology(params["topology"], params["n"]),
        "update": abm.Fermi(update["beta"]) if update["kind"] == "fermi" else abm.ProportionalImitation(),
    })


def _build_basin(params: dict) -> tuple[abm.AbmConfig, tuple[float, ...]]:
    x0_list = tuple(params["x0_list"])
    abm.check_x0(*x0_list)
    population = {key: value for key, value in params.items() if key != "x0_list"}
    return _build_abm({**population, "x0": x0_list[0]}), x0_list


def _each(run: Callable) -> Callable:
    """The runner of a kind that runs a replicate at a time, by ``run``."""
    return lambda model, master_seed, indices: (run(model, master_seed, i) for i in indices)


def _run_basin(model, master_seed: int, index: int) -> tuple[str, ...]:
    cfg, x0_list = model
    template = replace(cfg, rng_seed=master_seed)
    return tuple(abm.basin_replicate(template, x0_list, index))


def _abm_metrics(params: dict, trace) -> dict[str, float]:
    out = {"final_coop_fraction": float(trace.coop_fraction[-1])}
    for outcome in abm.OUTCOMES:
        out[f"outcome_{outcome}"] = float(trace.outcome == outcome)
    return out


def _basin_metrics(params: dict, row) -> dict[str, float]:
    # one indicator per (outcome, x0) cell
    out = {}
    for x0, cell in zip(params["x0_list"], row):
        for outcome in abm.OUTCOMES:
            out[f"{outcome}[x0={float(x0)!r}]"] = float(cell == outcome)
    return out


@dataclass(frozen=True)
class _Kind:
    """Everything the harness knows about one scenario kind."""

    schema: Callable  # () -> {params key: (cast, default)}, see ``_take``; runs the model's module
    build: Callable  # params -> model object; runs whenever a config is created
    run: Callable  # (model, master_seed, replicate indices) -> their results, in order
    metrics: Callable  # (params, result) -> {metric name: value}, same keys for every result
    write: Callable | None  # (result, index) -> (file name, header, columns), see ``_csv_chunks``
    streams: Callable = lambda params: 1  # seed streams per replicate
    deterministic: bool = False  # replicates must be 1
    diagnostics: Callable = lambda params, result: {}  # (params, result) -> counts, same keys for every result


# game, topology and update in their JSON forms; rounds is required here, not in the model
def _population() -> dict:
    return _params_of(
        abm.AbmConfig, skip=("x0", "rng_seed"),
        game=(_norm_game, REQUIRED),
        topology=(_variant({
            "well_mixed": {},
            "ring_lattice": {"k": (_as_int, REQUIRED)},
            "imported": {"path": (_as_str, REQUIRED)},
        }), {"kind": "well_mixed"}),
        update=(_variant({
            "proportional_imitation": {},
            "fermi": {"beta": (_as_float, REQUIRED)},
        }), {"kind": "proportional_imitation"}),
        rounds=(_as_int, REQUIRED),
    )


KINDS: dict[str, _Kind] = {
    "replicator": _Kind(
        schema=lambda: {
            "x0": (_as_float, REQUIRED),
            "t_end": (_as_float, REQUIRED),
            "dt": (_as_float, dynamics.DEFAULT_DT),
            "p_c": (_as_float, _OPTIONAL),
            "p_d": (_as_float, _OPTIONAL),
            "game": (_norm_game, _OPTIONAL),
        },
        build=_build_replicator,
        run=_each(lambda spec, master_seed, index: dynamics.integrate(spec)),
        metrics=lambda params, t: {"final_x": float(t.states[-1])},
        write=lambda t, i: (f"trajectory_{i:04d}.csv", "t,x", (t.times, t.states)),
    ),
    "bifurcation": _Kind(
        schema=lambda: _params_of(dynamics.sweep_bifurcation),
        build=lambda params: dynamics.check_bifurcation(**params) or params,
        run=_each(lambda params, master_seed, index: dynamics.sweep_bifurcation(**params)),
        metrics=lambda params, sweep: {
            "max_stable_roots": float(max(rep.stable_count() for _, rep in sweep)),
            "min_stable_roots": float(min(rep.stable_count() for _, rep in sweep)),
        },
        write=lambda sweep, i: ("bifurcation.csv", "lambda,root,stability", (
            *zip(*[(lam, root.location) for lam, rep in sweep for root in rep.roots]),
            [root.stability for _, rep in sweep for root in rep.roots],
        )),
        deterministic=True,
    ),
    "hysteresis": _Kind(
        schema=lambda: _params_of(dynamics.hysteresis_loop),
        build=lambda params: dynamics.check_hysteresis(**params) or params,
        run=_each(lambda params, master_seed, index: dynamics.hysteresis_loop(**params)),
        metrics=lambda params, report: {
            "loop_area": report.loop_area,
            "jumps_up": float(len(report.jumps_up)),
            "jumps_down": float(len(report.jumps_down)),
        },
        write=lambda report, i: ("hysteresis.csv", "sweep,lambda,state", (
            ["up"] * len(report.up_branch) + ["down"] * len(report.down_branch),
            *zip(*report.up_branch + report.down_branch),
        )),
        deterministic=True,
        diagnostics=lambda params, report: {
            "non_equilibrated": len(report.non_equilibrated),
            "misplaced_jumps": dynamics.misplaced_jumps(
                report, params["theta"], params["step"], params["jump_tol"]),
        },
    ),
    "netgrowth": _Kind(
        schema=lambda: _params_of(netgrowth.GrowthConfig, skip=("rng_seed",)),
        build=lambda params: netgrowth.GrowthConfig(**params),
        run=lambda cfg, master_seed, indices: netgrowth.grow_replicates(
            replace(cfg, rng_seed=master_seed), indices
        ),
        metrics=lambda params, t: {
            "final_agi_share": float(t.shares[-1]),
            "agi_lockin": float(t.locked_in == netgrowth.LOCKED_AGI),
            "dci_lockin": float(t.locked_in == netgrowth.LOCKED_DCI),
        },
        write=lambda t, i: (f"shares_{i:04d}.csv", "step,agi_share", (range(1, len(t.shares) + 1), t.shares)),
    ),
    "abm": _Kind(
        schema=lambda: {**_population(), "x0": (_as_float, REQUIRED)},
        build=_build_abm,
        run=_each(lambda cfg, master_seed, index: abm.run(
            replace(cfg, rng_seed=mix64(master_seed, index))
        )),
        metrics=_abm_metrics,
        write=lambda t, i: (f"abm_{i:04d}.csv", "round,coop_fraction",
                            (range(len(t.coop_fraction)), t.coop_fraction)),
    ),
    # basin outcome rows have no trace file, they only feed summary.csv
    "basin": _Kind(
        schema=lambda: {**_population(), "x0_list": (_norm_x0_list, REQUIRED)},
        build=_build_basin,
        run=_each(_run_basin),
        metrics=_basin_metrics,
        write=None,
        streams=lambda params: len(params["x0_list"]),
    ),
}


def _replicates(config: ScenarioConfig, indices: range, suffix: str) -> tuple[dict[str, array], Counter, dict[str, str]]:
    """Run the replicates ``indices`` and write each data file under its
    name plus ``suffix``; top-level so process pools can pickle it.  One
    ``write_outputs`` call per slice makes the output directory and draws
    the results as the runner yields them: this thread formats and hashes
    each one while the slice's writer thread writes the one before, so the
    slice holds one trace at a time.  A kind without files (basin) starts
    no writer thread.  Returns a float64 column per metric, the diagnostics
    summed and each data file's sha256 by name once every file is closed;
    an error stops the writer before it propagates."""
    spec = KINDS[config.kind]
    columns, counts = {}, Counter()

    def results():
        for result in spec.run(config.model, config.master_seed, indices):
            for name, value in spec.metrics(config.params, result).items():
                columns.setdefault(name, array("d")).append(value)
            counts.update(spec.diagnostics(config.params, result))
            yield result

    drawn = results()
    written = write_outputs(config.kind, drawn, config.output_dir, indices.start, suffix)
    for _ in drawn:  # the results of a kind without files, which write_outputs leaves
        pass
    files = {os.path.basename(path).removesuffix(suffix): digest for path, digest in written.items()}
    return columns, counts, files


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

_CHUNK_ROWS = 1 << 16  # rows formatted, written and hashed at a time
# Bytes a caller hashes with CPython's built-in SHA-256 before it takes hashlib's:
# about where the built-in's slower hashing has cost what importing hashlib costs.
_BUILTIN_SHA256_BYTES = 1 << 20


def new_sha256(hashed: int):
    """A new SHA-256 object for a caller whose ``hashed`` bytes count what
    it hashed before and the first block it will feed this object.  Below
    ``_BUILTIN_SHA256_BYTES``, while ``hashlib`` is not imported, it is
    CPython's built-in one (``_sha2`` from Python 3.12, ``_sha256`` before),
    so a call that hashes little never imports ``hashlib``, which maps
    OpenSSL's libcrypto: about 3.6 MB of RSS and 3-4 ms.  Otherwise, and on
    a build with neither, it is ``hashlib``'s, which hashes about five times
    as fast and lets go of the GIL while it hashes: from the switch on (a
    file whose first block is that large is hashed by it whole), and in a
    process that imported it anyway, as ``numpy.random`` does.  Every
    digest is the same either way."""
    if hashed < _BUILTIN_SHA256_BYTES and "hashlib" not in sys.modules:
        try:
            if sys.version_info >= (3, 12):
                from _sha2 import sha256
            else:
                from _sha256 import sha256
            return sha256()
        except ImportError:
            pass
    import hashlib

    return hashlib.sha256()


@functools.lru_cache(maxsize=1)
def _template(first: range | int, cells: int) -> bytes:
    """The ``%`` template of a chunk (the last asked for): ``%b`` (lead), a ``\\n``-led row of ``cells``
    ``%b`` per step of a range ``first``, after the step, or per row of ``first`` rows, ``%b`` (tail)."""
    if isinstance(first, range):
        rows = (b"\n%d" + b",%%b" * cells) * len(first) % tuple(first)
    else:
        rows = (b"\n%b" + b",%b" * (cells - 1)) * first
    return b"%b" + rows + b"%b"


def _cells(col) -> list[bytes]:
    """The CSV cells of a chunk of a column, every value spelled as ``repr`` spells it.

    orjson spells finite floats with 1e-4 <= |v| < 1e16, and +-0.0, as
    ``repr`` does, and others not (``1e16``, ``0.00009999999999999999``,
    ``null``).  So a float64 array whose values all pass that check (nan
    fails every comparison) is dumped by one ``orjson.dumps``; any other
    column, a ``range`` or a sequence of text, ints or floats included, is
    spelled by ``str``, which is ``repr`` for a float.  A column can be an
    array only once numpy is loaded, and only then is it tested for one.
    """
    np = sys.modules.get("numpy")
    if np is not None and isinstance(col, np.ndarray):
        size = abs(col)
        if len(col) and ((size < 1e16) & ((size >= 1e-4) | (size == 0))).all():
            import orjson  # here, not at module level: it would add to every CLI call's start-up

            flat = np.ascontiguousarray(col, dtype=np.float64)  # orjson rejects strided views
            return orjson.dumps(flat, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].split(b",")
        col = col.tolist()
    return [str(v).encode() for v in col]


def _chunk(columns, lead: bytes, tail: bytes) -> bytes:
    """``lead``, the ``\\n``-led rows of equal-length columns, then ``tail``,
    in one ``%`` of the cached template, whose arguments are ``lead``, the
    cells row by row and ``tail``; no row becomes a Python object."""
    first, *rest = columns
    if not isinstance(first, range):  # its cells are arguments too
        first, rest = len(first), columns
    args = [lead] + [tail] * (len(rest) * len(columns[0]) + 1)
    for j, col in enumerate(rest):
        args[1 + j:-1:len(rest)] = _cells(col)
    return _template(first, len(rest)) % tuple(args)


def _csv_chunks(header: str, columns):
    """The header, one ``\\n``-led row per index of the equal-length
    ``columns`` (each a ``range``, a float64 array or a sequence of text,
    ints or floats) and a closing ``\\n``, in non-empty chunks of
    ``_CHUNK_ROWS`` rows, each formatted as it is drawn; each comes as
    ``(chunk, last)``, ``last`` true for the file's last chunk."""
    last = max(len(columns[0]) - 1, 0) // _CHUNK_ROWS * _CHUNK_ROWS  # where the last chunk starts
    for lo in range(0, last + 1, _CHUNK_ROWS):
        yield (_chunk([col[lo:lo + _CHUNK_ROWS] for col in columns],
                      b"" if lo else header.encode(), b"\n" if lo == last else b""), lo == last)


def _writer(handoff, done) -> None:
    """The writer thread of ``_write_files``: take ``(path, chunk, last)``
    items from ``handoff``, open ``path`` at its first chunk, write each and
    close it after the ``last``, then put ``None`` on ``done``; stop at a
    ``None`` item.  The first error goes on ``done`` instead, and what
    follows is dropped up to the ``None``."""
    item = ()
    try:
        while (item := handoff.get()) is not None:
            path, data, last = item
            with open(path, "wb") as fh:
                fh.write(data)
                while not last and (item := handoff.get()) is not None:
                    _, data, last = item
                    fh.write(data)
            if item is None:  # the calling thread stopped within the file
                return
            done.put(None)
    except BaseException as exc:
        done.put(exc)
        while item is not None:
            item = handoff.get()


def _write_files(files) -> dict[str, str]:
    """Write each ``(path, chunks)`` of ``files``, ``chunks`` as
    ``_csv_chunks`` gives them; return each file's sha256 keyed by path once
    all are closed.  The one place where data files are opened, written and
    hashed: this thread draws ``files`` and the chunks (formatting, and any
    runner behind them) and hashes each chunk before it hands it over, while
    one writer thread opens, writes and closes, with one chunk queued
    between them.  Each file is hashed by ``new_sha256`` of the bytes this
    call has hashed once the file's first chunk is: a call's first MiB by
    the built-in SHA-256, which holds the GIL, unless hashlib is imported
    already, and the rest by hashlib, which lets go of the GIL while it
    hashes a chunk, and that is the writer's time to run.  Having handed
    over a file, this thread takes the writer's word that the one before is
    closed, so the writer's first error is raised here, with its type,
    before another file is drawn.  The thread is joined before this returns
    or raises."""
    import queue
    import threading

    handoff = queue.Queue(maxsize=1)  # one chunk waits while the next is formatted
    done = queue.SimpleQueue()  # None for each file closed, or the writer's error

    def closed() -> None:
        if (error := done.get()) is not None:
            raise error

    thread = threading.Thread(target=_writer, args=(handoff, done))
    thread.start()
    digests, hashed = {}, 0
    try:
        for path, chunks in files:
            digest = None
            for data, last in chunks:
                if digest is None:
                    digest = new_sha256(hashed + len(data))
                digest.update(data)
                hashed += len(data)
                handoff.put((path, data, last))
            if digests:
                closed()  # the file before, closed while this one was formatted
            digests[path] = digest.hexdigest()
        if digests:
            closed()
    finally:
        handoff.put(None)
        thread.join()
    return digests


def _write_csv(path: str, header: str, columns) -> str:
    """Write one CSV file of ``_csv_chunks`` by ``_write_files``; returns its sha256."""
    return _write_files([(path, _csv_chunks(header, columns))])[path]


def write_outputs(kind: str, traces, out_dir: str, start: int = 0, suffix: str = "") -> dict[str, str]:
    """Make ``out_dir`` and emit one CSV per trace in the schema of
    ``kind``, numbered from ``start``, each named with ``suffix`` appended,
    by ``_write_files``; returns the sha256 of each file, keyed by the path
    written, once every file is on disk.  ``traces`` is drawn lazily, so it
    may be a runner's results.

    Basin outcome rows have no trace file, they only feed summary.csv; no
    trace is drawn and no thread starts.
    """
    os.makedirs(out_dir, exist_ok=True)
    write = KINDS[kind].write
    if write is None:
        return {}

    def files():
        for i, item in enumerate(traces, start):
            name, header, columns = write(item, i)
            yield os.path.join(out_dir, name + suffix), _csv_chunks(header, columns)

    return _write_files(files())


def _platform() -> str:
    """``platform.platform()`` on Linux where ``uname -p`` prints ``unknown``
    or the machine name, built without the ``uname -p`` process it starts
    for the processor name: system, release, machine, ``with`` and the libc,
    spelled by its rules.  Other systems get ``platform.platform()``."""
    import platform

    if platform.system() != "Linux":
        return platform.platform()
    parts = (platform.system(), platform.release(), platform.machine(), "with", "".join(platform.libc_ver()))
    name = re.sub(r'[/\\:;"()]', "-", "-".join(p.strip() for p in parts if p).replace(" ", "_"))
    return re.sub("-{2,}", "-", name.replace("unknown", "")).rstrip("-")


def _env(jobs: int) -> dict:
    """What the data bytes may depend on besides the config: the versions
    that compute and spell the numbers, the host, and the worker count.
    numpy and orjson are listed only for a run that loaded numpy, since
    orjson spells only numpy arrays; a dynamics sweep and its files load
    neither."""
    import platform

    env = {"python": platform.python_version(), "platform": _platform(),
           "cpu_count": os.cpu_count(), "jobs": jobs}
    if "numpy" in sys.modules:
        import orjson

        env.update(numpy=sys.modules["numpy"].__version__, orjson=orjson.__version__)
    return env


def _unlink(path: str) -> None:
    """Remove a file; a name that is gone or is not a removable file stays."""
    try:
        os.unlink(path)
    except OSError:
        pass


def read_manifest(run_dir: str) -> dict:
    """A run directory's manifest, whose ``files`` names only data files of
    the run: bare file names other than ``.``, ``..`` and ``manifest.json``,
    and whose ``diagnostics``, if present, maps names to integer counts.
    ConfigError when there is no readable manifest or it breaks either rule."""
    path = os.path.join(run_dir, "manifest.json")
    try:
        with open(path, encoding="utf-8") as fh:
            manifest = json.load(fh)
        files = manifest["files"]
        if not isinstance(files, dict):
            raise TypeError("'files' is not an object")
        counts = manifest.get("diagnostics", {})
        if not isinstance(counts, dict) or any(type(c) is not int for c in counts.values()):
            raise TypeError("'diagnostics' is not an object of integer counts")
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"no readable manifest at {path!r}: {exc}") from None
    for name in files:
        if name != os.path.basename(name) or name in ("", ".", "..", "manifest.json"):
            raise ConfigError(f"manifest {path!r} lists {name!r}, which is not a file of the run")
    return manifest


def run_scenario(
    config: ScenarioConfig, jobs: int = 1
) -> tuple[dict[str, array], dict[str, SummaryStats], RunManifest]:
    """Run all replicates, commit their data files, then write the manifest.

    Each replicate's file is written under a temporary name in the output
    directory by the process that computed it: its thread formats and
    hashes the file, and the one writer thread of its slice writes it
    (``_replicates``); only its slice's metric columns, diagnostic sums and
    digests come back.  Every writer thread is joined before its slice
    returns or raises, so no write is in flight when the run commits or
    cleans up, or when a pool forks.  Once every data file and
    ``summary.csv`` is written, each is renamed over its final name, and
    then the manifest is written.  Until the renames, no file that was in
    the directory is changed.  Returns the metric columns, their summaries
    and the manifest.

    If anything fails, simulation included, every file the run created
    (temporary files too), every file the directory's previous manifest
    listed and ``manifest.json`` are removed, and no other file.  Once the
    new manifest is written, files the previous manifest listed and this run
    did not write are deleted, and so are the ``<name>.tmp<digits>`` files
    that runs killed before their commit left.  At most ``jobs`` worker
    processes run, and never more than the replicates or the cores, each on
    one contiguous slice of the replicates; a ``jobs`` below 1 runs one,
    in-process, and is recorded as 1.  Slices are joined in replicate
    order, so parallel runs emit the same bytes as serial ones.
    """
    started = datetime.now(timezone.utc).isoformat()
    spec = KINDS[config.kind]
    n_rep = config.replicates
    n_streams = n_rep * spec.streams(config.params)
    seeds = tuple(mix64(config.master_seed, i) for i in range(n_streams))

    out = config.output_dir
    manifest_path = os.path.join(out, "manifest.json")
    try:
        previous = set(read_manifest(out)["files"])
    except ConfigError:  # no manifest it can trust, so no file it lists goes
        previous = set()
    before, stale = set(), []  # stale: temporary files of runs that never committed
    for name in os.listdir(out) if os.path.isdir(out) else ():
        before.add(name)
        if re.fullmatch(r".+\.tmp[0-9]+", name):
            stale.append(name)
    suffix = f".tmp{os.getpid()}"
    workers = max(1, min(jobs, n_rep, os.cpu_count() or 1))
    args = (repeat(config), [range(n_rep * k // workers, n_rep * (k + 1) // workers)
                             for k in range(workers)], repeat(suffix))
    try:
        if workers > 1:
            from concurrent.futures import ProcessPoolExecutor
            with ProcessPoolExecutor(max_workers=workers) as pool:
                parts = pool.map(_replicates, *args)  # drawn once every worker is done
        else:
            parts = map(_replicates, *args)
        columns, diagnostics, files = next(parts)  # the first slice's, which the others extend
        for part_columns, part_counts, part_files in parts:  # in replicate order
            for name, column in columns.items():
                column.extend(part_columns[name])
            diagnostics.update(part_counts)
            files.update(part_files)
        summary = {name: aggregate(column) for name, column in columns.items()}
        files["summary.csv"] = _write_csv(
            os.path.join(out, "summary.csv" + suffix), "metric,mean,std,min,max,ci95,n",
            (list(summary), *zip(*map(astuple, summary.values()))),
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
            diagnostics=dict(diagnostics),
            env=_env(workers),
        )
        with open(manifest_path, "w", encoding="utf-8", newline="") as fh:
            json.dump(vars(manifest), fh, indent=2, sort_keys=True)  # its fields, not a copy
            fh.write("\n")
    except BaseException:
        created = (set(os.listdir(out)) if os.path.isdir(out) else set()) - before
        for name in created | previous | {"manifest.json"}:
            _unlink(os.path.join(out, name))
        raise
    for name in (previous - manifest.files.keys()).union(stale):
        _unlink(os.path.join(out, name))
    return columns, summary, manifest

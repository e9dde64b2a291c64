"""Command-line front end.

``run`` executes a JSON scenario file; the shortcut subcommands
(``replicator``, ``bifurcate``, ``hysteresis``, ``netgrowth``, ``abm``,
``basin``) synthesize the equivalent config from flags and go through the
same loader, so flag runs and file runs with equal values emit identical
bytes.  Each shortcut is one row of ``_SHORTCUTS``: its flags and the
params key each one sets.  A flag left out leaves its key out, and the
loader fills in the default, so every default lives in the loader only.
``report`` checks every file a run directory's manifest lists against its
sha256, then pretty-prints summary.csv and every non-zero diagnostic; a
missing or changed file fails it with exit code 1.

Exit codes: 0 success, 1 usage or config error, 2 runtime failure.
Diagnostics go to stderr; data files never contain log lines.  A run whose
manifest reports a non-zero numerical diagnostic prints a warning to stderr,
also under ``--quiet``.  The env var ``ATTRACTORLAB_SEED`` overrides the
config's master seed, and an explicit ``--seed`` flag overrides both; the
seed and ``--out`` are applied to the config document before its one load.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
from collections.abc import Callable
from typing import NamedTuple

from .harness import KINDS, ConfigError, load_config, parse_json, read_manifest, run_scenario

SEED_ENV = "ATTRACTORLAB_SEED"


def _err(message: str) -> None:
    print(f"attractorlab: {message}", file=sys.stderr)


def _info(args, message: str) -> None:
    if not getattr(args, "quiet", False):
        print(message, file=sys.stderr)


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the contract reserves 2 for runtime
    def error(self, message):
        self.print_usage(sys.stderr)
        _err(message)
        raise SystemExit(1)


def _numbers(cast, count: int | None = None):
    """Parser of comma-separated numbers: exactly ``count`` of them, or any
    number when count is None (then empty items are skipped)."""

    def parse(text: str) -> list:
        parts = text.split(",")
        if count is None:
            parts = [p for p in parts if p != ""]
        elif len(parts) != count:
            raise argparse.ArgumentTypeError(f"expects {count} comma-separated numbers, got {text!r}")
        try:
            return [cast(p) for p in parts]
        except ValueError:
            raise argparse.ArgumentTypeError(f"expects numbers, got {text!r}") from None

    return parse


def _parse_game(text: str) -> dict:
    return dict(zip(("r", "sg", "t", "pu"), _numbers(float, 4)(text)))


def _parse_topology(text: str) -> dict:
    if text == "well_mixed":
        return {"kind": "well_mixed"}
    if text.startswith("ring:"):
        try:
            return {"kind": "ring_lattice", "k": int(text[5:])}
        except ValueError:
            raise argparse.ArgumentTypeError(f"ring expects 'ring:K', got {text!r}") from None
    if text.startswith("file:"):
        return {"kind": "imported", "path": text[5:]}
    raise argparse.ArgumentTypeError(
        f"unknown topology {text!r}; use well_mixed, ring:K or file:PATH"
    )


def _parse_update(text: str) -> dict:
    if text == "proportional_imitation":
        return {"kind": "proportional_imitation"}
    if text.startswith("fermi:"):
        try:
            return {"kind": "fermi", "beta": float(text[6:])}
        except ValueError:
            raise argparse.ArgumentTypeError(f"fermi expects 'fermi:BETA', got {text!r}") from None
    raise argparse.ArgumentTypeError(f"unknown update rule {text!r}")


class _Flag(NamedTuple):
    """A shortcut flag and the params key (or keys) its parsed value sets."""

    name: str
    key: str | tuple[str, ...]
    parse: Callable = float
    required: bool = False
    help: str | None = None

    @property
    def dest(self) -> str:
        return self.name[2:].replace("-", "_")


class _Shortcut(NamedTuple):
    kind: str
    help: str
    flags: tuple[_Flag, ...]
    command: str | None = None  # subcommand name, when it is not the kind


_GAME_HELP = "payoffs 'r,sg,t,pu'"

_SWEEP_FLAGS = (
    _Flag("--theta", "theta", required=True),
    _Flag("--lambda-lo", "lambda_lo", required=True),
    _Flag("--lambda-hi", "lambda_hi", required=True),
    _Flag("--step", "step", required=True),
)

_POPULATION_FLAGS = (
    _Flag("--n", "n", int, True, "number of agents"),
    _Flag("--game", "game", _parse_game, True, _GAME_HELP),
    _Flag("--rounds", "rounds", int, True),
    _Flag("--topology", "topology", _parse_topology, help="well_mixed | ring:K | file:PATH"),
    _Flag("--update", "update", _parse_update, help="proportional_imitation | fermi:BETA"),
    _Flag("--noise", "noise"),
    _Flag("--sc", "s_c", help="competitive-outcome threshold"),
    _Flag("--sd", "s_d", help="cooperative-outcome threshold"),
)

_SHORTCUTS = (
    _Shortcut("replicator", "integrate the strategy-share flow", (
        _Flag("--x0", "x0", required=True),
        _Flag("--t-end", "t_end", required=True),
        _Flag("--dt", "dt"),
        _Flag("--pc", "p_c"),
        _Flag("--pd", "p_d"),
        _Flag("--game", "game", _parse_game, help=_GAME_HELP),
    )),
    _Shortcut("bifurcation", "fixed-point sweep of the bistable family", (
        *_SWEEP_FLAGS,
        _Flag("--grid-n", "grid_n", int),
    ), command="bifurcate"),
    _Shortcut("hysteresis", "quasi-static up/down sweep", (
        *_SWEEP_FLAGS,
        _Flag("--relax-t", "relax_t"),
        _Flag("--relax-dt", "relax_dt"),
        _Flag("--jump-tol", "jump_tol"),
    )),
    _Shortcut("netgrowth", "two-camp growing network", (
        _Flag("--seeds", ("seed_agi", "seed_dci"), _numbers(int, 2), True, "initial nodes 'AGI,DCI'"),
        _Flag("--nodes", "n_nodes", int, True, "arrivals to simulate"),
        _Flag("--m", "m", int, help="edges per arrival (degree_pa)"),
        _Flag("--mode", "mode", str, help="urn | degree_pa"),
        _Flag("--boost", "dci_boost", help="DCI attachment weight"),
        _Flag("--tau", "tau", help="lock-in share threshold"),
    )),
    _Shortcut("abm", "imitation-game population run", (
        *_POPULATION_FLAGS,
        _Flag("--x0", "x0", required=True),
    )),
    _Shortcut("basin", "outcome frequencies across initial fractions", (
        *_POPULATION_FLAGS,
        _Flag("--x0-list", "x0_list", _numbers(float), True, "comma-separated initial fractions"),
    )),
)


def _resolve_seed(flag_value, fallback: int) -> int:
    if flag_value is not None:
        return flag_value
    env = os.environ.get(SEED_ENV)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ConfigError(f"{SEED_ENV} must be an integer, got {env!r}") from None
    return fallback


def _execute(args, doc) -> int:
    """Apply the seed override and ``--out`` to a config document, load and run it."""
    if isinstance(doc, dict):  # the loader rejects anything else
        if "master_seed" in doc:
            doc["master_seed"] = _resolve_seed(args.seed, doc["master_seed"])
        if args.out is not None:
            doc["output_dir"] = args.out
    config = load_config(json.dumps(doc))
    _info(args, f"running {config.kind} ({config.replicates} replicate(s)) -> {config.output_dir}")
    _, _, manifest = run_scenario(config, jobs=args.jobs)
    for name in manifest.files:
        _info(args, f"wrote {os.path.join(config.output_dir, name)}")
    for name, count in manifest.diagnostics.items():
        if count:
            where = os.path.join(config.output_dir, "manifest.json")
            _err(f"warning: diagnostic {name} = {count}, results may be unreliable; see {where}")
    return 0


def _cmd_run(args) -> int:
    try:
        with open(args.config, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {args.config!r}: {exc}") from None
    return _execute(args, parse_json(text))


def _cmd_shortcut(args) -> int:
    shortcut = args.shortcut
    params = {}
    for flag in shortcut.flags:
        value = getattr(args, flag.dest)
        if value is None:
            continue  # the loader fills in the default
        if isinstance(flag.key, tuple):
            params.update(zip(flag.key, value))
        else:
            params[flag.key] = value
    doc = {
        "kind": shortcut.kind,
        "master_seed": 0,
        "replicates": args.replicates,
        "params": params,
    }
    return _execute(args, doc)


def _verified_manifest(run_dir: str) -> dict:
    """A run directory's manifest, once every file it lists is re-hashed
    and matches its digest."""
    manifest = read_manifest(run_dir)
    path = os.path.join(run_dir, "manifest.json")
    for name, digest in manifest["files"].items():
        try:
            with open(os.path.join(run_dir, name), "rb") as fh:
                data = fh.read()
        except OSError:
            raise ConfigError(f"{name} is listed in {path!r} but missing") from None
        if hashlib.sha256(data).hexdigest() != digest:
            raise ConfigError(f"{name} does not match its digest in {path!r}")
    return manifest


def _cmd_report(args) -> int:
    path = os.path.join(args.dir, "summary.csv")
    if not os.path.exists(path):
        raise ConfigError(f"no summary at {path!r}")
    manifest = _verified_manifest(args.dir)
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ConfigError(f"empty summary at {path!r}")
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    for row in rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    for name, count in manifest.get("diagnostics", {}).items():
        if count:
            print(f"diagnostic {name} = {count}")
    return 0


def _add_common(sub, out_help: str) -> None:
    sub.add_argument("--seed", type=int, default=None, help="master seed (wins over env)")
    sub.add_argument("--out", default=None, help=out_help)
    sub.add_argument("--jobs", type=int, default=1, help="max parallel replicates")
    sub.add_argument("--quiet", action="store_true", help="suppress status lines")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="attractorlab",
                     description="Deterministic path-dependence simulations.")
    subs = parser.add_subparsers(dest="subcommand", required=True)

    sub = subs.add_parser("run", help="run a JSON scenario file")
    sub.add_argument("--config", required=True, help="scenario JSON path")
    _add_common(sub, "override the config's output_dir")
    sub.set_defaults(func=_cmd_run)

    for shortcut in _SHORTCUTS:
        sub = subs.add_parser(shortcut.command or shortcut.kind, help=shortcut.help)
        for flag in shortcut.flags:
            sub.add_argument(flag.name, type=flag.parse, required=flag.required, help=flag.help)
        _add_common(sub, "output directory (default: the loader's output_dir)")
        if KINDS[shortcut.kind].deterministic:
            sub.set_defaults(replicates=1)
        else:
            sub.add_argument("--replicates", type=int, default=1)
        sub.set_defaults(func=_cmd_shortcut, shortcut=shortcut)

    sub = subs.add_parser("report", help="verify a run's files, then print its summary.csv as a table")
    sub.add_argument("dir", help="run directory")
    sub.set_defaults(func=_cmd_report, quiet=True)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # --help exits 0, usage errors exit 1
        code = exc.code if exc.code is not None else 0
        return 0 if code == 0 else 1
    try:
        return args.func(args)
    except ConfigError as exc:
        _err(str(exc))
        return 1
    except Exception as exc:  # runtime failure
        _err(f"{type(exc).__name__}: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())

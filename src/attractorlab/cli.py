"""Command-line front end.

``run`` executes a JSON scenario file; the shortcut subcommands
(``replicator``, ``bifurcate``, ``hysteresis``, ``netgrowth``, ``abm``,
``basin``) synthesize the equivalent config from flags and go through the
same loader, so flag runs and file runs with equal values emit identical
bytes.  A shortcut's flags are derived from its kind's params schema in
``KINDS``: one flag per key, named by the rule at ``_RENAMED``, required
exactly when the key is, and listed in schema order.  A flag with no
syntax of its own passes its text on as an int, a float or a word, and the
loader checks its type.  A flag left out leaves its key out, and the
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

from .harness import (KINDS, REQUIRED, ConfigError, load_config, parse_json, read_manifest,
                      run_scenario)

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
    number when count is None.  An empty item (``0.2,,0.6`` or a trailing
    comma) is a usage error that names the text."""

    def parse(text: str) -> list:
        parts = text.split(",")
        if count is not None and len(parts) != count:
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


def _scalar(text: str):
    """A flag's text as an int, else a float, else the word itself; the
    loader's cast then checks its type and names the key."""
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    return text


# A shortcut flag is "--" plus its params key with "-" for "_", except for
# these keys.  --seeds is the one flag that sets two keys, the _SEEDS pair.
_RENAMED = {"n_nodes": "--nodes", "dci_boost": "--boost", "p_c": "--pc", "p_d": "--pd",
            "s_c": "--sc", "s_d": "--sd", "seed_agi": "--seeds"}
_SEEDS = ("seed_agi", "seed_dci")

# keys with a syntax of their own, by the first key a flag sets
_PARSERS = {"game": _parse_game, "topology": _parse_topology, "update": _parse_update,
            "x0_list": _numbers(float), "seed_agi": _numbers(int, 2)}

_HELP = {
    "game": "payoffs 'r,sg,t,pu'",
    "n": "number of agents",
    "topology": "well_mixed | ring:K | file:PATH",
    "update": "proportional_imitation | fermi:BETA",
    "s_c": "competitive-outcome threshold",
    "s_d": "cooperative-outcome threshold",
    "x0_list": "comma-separated initial fractions",
    "seed_agi": "initial nodes 'AGI,DCI'",
    "n_nodes": "arrivals to simulate",
    "m": "edges per arrival (degree_pa)",
    "mode": "urn | degree_pa",
    "dci_boost": "DCI attachment weight",
    "tau": "lock-in share threshold",
}

# subcommand -> (scenario kind, help line)
_SUBCOMMANDS = {
    "replicator": ("replicator", "integrate the strategy-share flow"),
    "bifurcate": ("bifurcation", "fixed-point sweep of the bistable family"),
    "hysteresis": ("hysteresis", "quasi-static up/down sweep"),
    "netgrowth": ("netgrowth", "two-camp growing network"),
    "abm": ("abm", "imitation-game population run"),
    "basin": ("basin", "outcome frequencies across initial fractions"),
}


def _flags(kind: str):
    """(flag name, params keys it sets, required) of each shortcut flag of
    ``kind``, in schema order; a flag is required when its key is."""
    for key, (_, default) in KINDS[kind].schema.items():
        if key != _SEEDS[1]:  # --seeds sets it with _SEEDS[0]
            keys = _SEEDS if key == _SEEDS[0] else (key,)
            yield _RENAMED.get(key, "--" + key.replace("_", "-")), keys, default is REQUIRED


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
    kind = _SUBCOMMANDS[args.subcommand][0]
    params = {}
    for _, keys, _ in _flags(kind):
        value = getattr(args, keys[0])
        if value is not None:  # a flag left out leaves its keys to the loader's defaults
            params.update(zip(keys, value) if len(keys) > 1 else [(keys[0], value)])
    doc = {
        "kind": kind,
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
        sha = hashlib.sha256()
        try:
            with open(os.path.join(run_dir, name), "rb") as fh:
                while block := fh.read(1 << 20):  # 1 MiB at a time, so no file is whole in memory
                    sha.update(block)
        except OSError:
            raise ConfigError(f"{name} is listed in {path!r} but missing") from None
        if sha.hexdigest() != digest:
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

    for command, (kind, help_line) in _SUBCOMMANDS.items():
        sub = subs.add_parser(command, help=help_line)
        for name, keys, required in _flags(kind):
            sub.add_argument(name, dest=keys[0], metavar=name[2:].replace("-", "_").upper(),
                             type=_PARSERS.get(keys[0], _scalar), required=required,
                             help=_HELP.get(keys[0]))
        _add_common(sub, "output directory (default: the loader's output_dir)")
        if KINDS[kind].deterministic:
            sub.set_defaults(replicates=1)
        else:
            sub.add_argument("--replicates", type=int, default=1)
        sub.set_defaults(func=_cmd_shortcut)

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

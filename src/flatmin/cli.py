"""Command-line entry point: run configs, list presets, print the version."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from .errors import ContractViolationError, NonFiniteError
from .harness import JsonObject, normalize_config, run_config
from .presets import list_presets


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="flatmin", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute an experiment config")
    p_run.add_argument("config", type=Path, help="path to a JSON config file")
    p_run.add_argument(
        "--output-dir", type=Path, default=None, help="override the config's output_dir"
    )

    p_presets = sub.add_parser("presets", help="list shipped presets")
    p_presets.add_argument("--json", action="store_true", help="emit machine-readable JSON")

    sub.add_parser("version", help="print the artifact version")

    args = parser.parse_args(argv)

    if args.command == "version":
        print(__version__)
        return 0

    if args.command == "presets":
        presets = list_presets()
        if args.json:
            print(json.dumps(presets, indent=2, sort_keys=True))
        else:
            for p in presets:
                print(f"{p['name']:24s} [{p['kind']}] {p['description']}")
        return 0

    try:
        raw = json.loads(args.config.read_text(encoding="utf-8"), object_pairs_hook=JsonObject)
    except FileNotFoundError:
        print(f"error: config file not found: {args.config}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as err:
        print(f"error: {args.config}:{err.lineno}:{err.colno}: {err.msg}", file=sys.stderr)
        return 2
    except (OSError, UnicodeDecodeError) as err:
        print(f"error: cannot read config file {args.config}: {err}", file=sys.stderr)
        return 2
    except (RecursionError, ValueError) as err:  # nested too deep, or an int too long to read
        print(f"error: {args.config}: {err}", file=sys.stderr)
        return 2
    try:
        cfg = normalize_config(raw)
    except ContractViolationError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    try:
        report = run_config(cfg, args.output_dir)
    except (NonFiniteError, ContractViolationError, OSError, MemoryError) as err:
        print(f"error: {str(err) or type(err).__name__}", file=sys.stderr)
        return 1
    out_dir = args.output_dir if args.output_dir is not None else cfg["output_dir"]
    print(f"ok: wrote {Path(out_dir) / 'report.json'} ({report['kind']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line entry point.

    stabcorrect <command> --config cfg.json [--seed N] [--out PATH] [--format jsonl|csv]

The config file is a single JSON document; flags override its seed and
output fields.  Commands: analyze, test, selfcorrect, decompose,
learn-extent, oracle, bench.
"""

from __future__ import annotations

import argparse
import json
import sys

from .harness import COMMANDS, FORMATS, ExperimentConfig, run


# the JSON name of each type ``json.load`` returns, objects aside
_JSON_TYPES = {list: "array", str: "string", int: "number", float: "number",
               bool: "boolean", type(None): "null"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="stabcorrect")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=name != "bench", help="JSON config file")
        p.add_argument("--seed", type=int, default=None, help="master seed override")
        p.add_argument("--out", default=None, help="result path override")
        p.add_argument("--format", default=None, choices=FORMATS)
        p.add_argument("--trials", type=int, default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.config:
        with open(args.config) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError(
                f"config file {args.config} must hold a JSON object, "
                f"got a JSON {_JSON_TYPES[type(data)]}"
            )
    else:
        data = {"command": args.command}
    data["command"] = args.command
    if args.seed is not None:
        data["seed"] = args.seed
    if args.out is not None:
        data["out"] = args.out
    if args.format is not None:
        data["format"] = args.format
    if args.trials is not None:
        data["trials"] = args.trials
    config = ExperimentConfig.from_json(data)
    records = run(config)
    for rec in records:
        if config.command == "bench":
            print(json.dumps(rec.outputs, sort_keys=True, default=float))
        else:
            summary = {
                k: v
                for k, v in rec.outputs.items()
                if isinstance(v, (int, float, str))
            }
            print(f"trial {rec.trial}: {json.dumps(summary, sort_keys=True, default=float)}")
    if config.out:
        print(f"wrote {len(records)} records to {config.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

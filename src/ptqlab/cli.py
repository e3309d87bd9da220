"""Command-line entry point: train | quantize | sensitivity | assign | eval |
reproduce, all driven by one JSON config file."""

from __future__ import annotations

import argparse
import json
import sys

from .errors import ParameterError, PtqLabError
from .pipeline import MODELS, PipelineConfig, Workspace, reproduce, stage_assign, \
    stage_eval, stage_quantize, stage_report, stage_sensitivity, stage_train


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are :class:`ParameterError`, reported as JSON."""

    def error(self, message):
        raise ParameterError(message)


def _add_common(p):
    p.add_argument("-c", "--config", required=True, help="pipeline config JSON")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ptqlab",
                     description="Mixed-precision PTQ lab for a toy AR/diffusion transformer")
    sub = parser.add_subparsers(dest="command", required=True)

    _add_common(sub.add_parser("train", help="train the paired AR/diffusion checkpoints"))

    q = sub.add_parser("quantize", help="quantize one checkpoint with RTN or GPTQ")
    _add_common(q)
    q.add_argument("--model", choices=MODELS, required=True)
    q.add_argument("--method", choices=("rtn", "gptq"), required=True)
    q.add_argument("--bits", type=int)
    q.add_argument("--plan", help="QuantPlan JSON instead of a uniform --bits")

    s = sub.add_parser("sensitivity", help="power-iteration sensitivity scores")
    _add_common(s)
    s.add_argument("--model", choices=MODELS, required=True)

    a = sub.add_parser("assign", help="split-ratio precision assignment")
    _add_common(a)
    a.add_argument("--model", choices=MODELS, required=True)
    a.add_argument("--ratios", help="p_hi,p_mid,p_lo (default: the grid's HAWQ split, "
                                    "grid.hawq_ratio,1-grid.hawq_ratio,0)")
    a.add_argument("--levels", help="bit levels (default 16,8,4), e.g. 8,4,4")
    a.add_argument("--budget", type=float, help="target average bits instead of ratios")

    _add_common(sub.add_parser("eval", help="run the grid, reuse cached cells, write the report"))

    r = sub.add_parser("reproduce", help="end-to-end: train, grid, report")
    _add_common(r)
    r.add_argument("--dry-run", action="store_true", help="print the grid plan and exit")
    return parser


def _parse_list(text, kind, flag):
    """The comma-separated ``kind`` values of ``flag``, or None when not given."""
    if not text:
        return None
    try:
        return tuple(kind(x) for x in text.split(","))
    except ValueError as exc:
        raise ParameterError(f"{flag} takes comma-separated {kind.__name__}s, "
                             f"got {text!r}") from exc


def main(argv=None) -> int:
    """0 on success, 1 when a stage fails, 2 on a usage error; errors are JSON on stderr."""
    args = None
    try:
        args = build_parser().parse_args(argv)
        cfg = PipelineConfig.load(args.config)
        ws = Workspace(cfg)
        if "model" in args:  # the stage works on the checkpoint verified here
            ckpt = ws.require_checkpoint(args.model)
        if args.command == "train":
            out = stage_train(ws)
        elif args.command == "quantize":
            out = stage_quantize(ws, ckpt, args.method, bits=args.bits, plan_path=args.plan)
        elif args.command == "sensitivity":
            out = stage_sensitivity(ws, ckpt)
        elif args.command == "assign":
            out = stage_assign(ws, ckpt,
                               ratios=_parse_list(args.ratios, float, "--ratios"),
                               levels=_parse_list(args.levels, int, "--levels"),
                               budget=args.budget)
        elif args.command == "eval":
            evaled = stage_eval(ws)
            out = {"n_cells": evaled["n_cells"], "n_failed": evaled["n_failed"],
                   "report": stage_report(ws, evaled["results"])}
        else:  # reproduce; argparse admits no other subcommand
            out = _dry_run(ws) if args.dry_run else reproduce(ws)
    except (PtqLabError, OSError) as exc:
        json.dump({"error": type(exc).__name__, "message": str(exc),
                   "stage": getattr(args, "command", None)}, sys.stderr)
        sys.stderr.write("\n")
        return 2 if args is None else 1
    json.dump(out, sys.stdout, indent=2, sort_keys=True, default=str)
    sys.stdout.write("\n")
    return 0


def _dry_run(ws: Workspace) -> dict:
    from .evaluation import plan_grid

    rows = plan_grid(ws.cfg.grid)
    return {"dry_run": True, "n_cells": len(rows),
            "cells": [" ".join(r) for r in rows]}


if __name__ == "__main__":
    sys.exit(main())

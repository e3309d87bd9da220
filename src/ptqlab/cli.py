"""Command-line entry point: train | quantize | sensitivity | assign | eval |
bench | report | reproduce, all driven by one JSON config file."""

from __future__ import annotations

import argparse
import json
import sys

from .errors import ParameterError, PtqLabError
from .pipeline import MODELS, PipelineConfig, Workspace, reproduce, stage_assign, \
    stage_bench, stage_eval, stage_quantize, stage_report, stage_sensitivity, stage_train


def _add_common(p):
    p.add_argument("-c", "--config", required=True, help="pipeline config JSON")
    p.add_argument("--force", action="store_true",
                   help="consume artifacts even if their config hash mismatches")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ptqlab",
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
    a.add_argument("--ratios", help="p_hi,p_mid,p_lo (default from config)")
    a.add_argument("--levels", help="bit levels, e.g. 16,8,4 or 8,4,4")
    a.add_argument("--budget", type=float, help="target average bits instead of ratios")

    _add_common(sub.add_parser("eval", help="run the full experiment grid"))

    b = sub.add_parser("bench", help="latency of one baseline checkpoint")
    _add_common(b)
    b.add_argument("--model", choices=MODELS, required=True)

    _add_common(sub.add_parser("report", help="emit tables and charts from the grid"))

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
    args = build_parser().parse_args(argv)
    try:
        cfg = PipelineConfig.load(args.config)
        ws = Workspace(cfg)
        if args.command == "train":
            out = stage_train(ws, args.force)
        elif args.command == "quantize":
            out = stage_quantize(ws, args.model, args.method, bits=args.bits,
                                 plan_path=args.plan, force=args.force)
        elif args.command == "sensitivity":
            out = stage_sensitivity(ws, args.model, args.force)
        elif args.command == "assign":
            out = stage_assign(ws, args.model,
                               ratios=_parse_list(args.ratios, float, "--ratios"),
                               levels=_parse_list(args.levels, int, "--levels"),
                               budget=args.budget, force=args.force)
        elif args.command == "eval":
            evaled = stage_eval(ws, args.force)
            out = {"n_cells": evaled["n_cells"], "n_failed": evaled["n_failed"],
                   "report": stage_report(ws, evaled["results"])}
        elif args.command == "bench":
            out = stage_bench(ws, args.model, args.force)
        elif args.command == "report":
            out = stage_report(ws)
        elif args.command == "reproduce":
            if args.dry_run:
                out = _dry_run(ws)
            else:
                out = reproduce(ws, args.force)
        else:  # pragma: no cover - argparse enforces choices
            raise AssertionError(args.command)
    except (PtqLabError, FileNotFoundError) as exc:
        json.dump({"error": type(exc).__name__, "message": str(exc),
                   "stage": getattr(args, "command", None)}, sys.stderr)
        sys.stderr.write("\n")
        return 1
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

"""Turn grid results into tables, a chart, and frontier classifications.

All emission is byte-deterministic: rows are sorted, floats are fixed to
three decimals, and the chart is hand-written SVG (text, diffable, no
graphics dependency).
"""

from __future__ import annotations

import csv
import functools
import hashlib
import io
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import evaluation
from .evaluation import CSV_FIELDS, EvalResult
from .files import write_atomic

FMT = "{:.3f}"

# The report files emit writes, and its bookkeeping file beside them: a
# dotfile, because it is no report.
REPORT_FILES = ("results.csv", "report.json", "table.md", "pareto.svg")
MANIFEST = ".manifest.json"

_METHOD_ORDER = {"gptq": 0, "rtn": 1, "hawq": 2, "baseline": 3}
_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b",
            "#17becf", "#7f7f7f")


def fmt(x: float) -> str:
    return FMT.format(x)


# ---------------------------------------------------------------------------
# Pareto frontier


@dataclass
class ParetoPoint:
    label: str
    effective_avg_bits: float
    score: float


def pareto_frontier(points):
    """(frontier sorted by bits ascending, dominated list).

    Maximize score, minimize bits. A point is dominated when another point
    has <= bits and >= score with at least one strict; among exact
    duplicates the first label in sort order survives. In the order
    (bits, -score, label) those are exactly the points whose score is not
    strictly above every score before them.
    """
    frontier, dominated = [], []
    for p in sorted(points, key=lambda p: (p.effective_avg_bits, -p.score, p.label)):
        (dominated if frontier and p.score <= frontier[-1].score else frontier).append(p)
    return frontier, dominated


def points_from_results(results) -> list:
    pts = []
    for r in results:
        if r.status != "ok":
            continue
        pts.append(ParetoPoint(f"{r.model} {r.method} {r.bits_or_plan}",
                               round(r.eff_bits, 6), round(r.mean_score(), 6)))
    return pts


# ---------------------------------------------------------------------------
# Degradation table


def _row_sort_key(r: EvalResult):
    bits = r.raw_bits if np.isfinite(r.raw_bits) else 99.0
    return (_METHOD_ORDER.get(r.method, 9), bits, r.bits_or_plan)


def degradation_table(results) -> str:
    """Markdown table with a row per quantization level, cells 'diffusion (ar)'
    and deltas vs the 16-bit baseline; a failed cell's scores and delta read
    'failed', and the deltas of a model with no ok baseline are blank.
    """
    ok = [r for r in results if r.status == "ok"]
    by_key: dict = {}
    for r in results:
        by_key.setdefault((r.method, r.bits_or_plan), {})[r.mode] = r
    base_mean = {r.mode: r.mean_score() for r in ok
                 if (r.method, r.bits_or_plan) == ("baseline", "16bit")}

    task_names = sorted({t for r in ok for t in r.scores})
    headers = ["quantization"] + task_names + ["delta diffusion", "delta ar"]

    def sort_key(key):  # the diffusion cell's place, or the ar cell's when that one failed
        diff_r, ar_r = by_key[key]["diffusion"], by_key[key]["ar"]
        return _row_sort_key(diff_r if diff_r.status == "ok" else ar_r)

    def score(r, task):
        return fmt(r.scores.get(task, float("nan"))) if r.status == "ok" else "failed"

    def delta(r):
        if r.status != "ok":
            return "failed"
        return fmt(r.mean_score() - base_mean[r.mode]) if r.mode in base_mean else ""

    pairs = sorted({k for k in by_key if "ar" in by_key[k] and "diffusion" in by_key[k]},
                   key=sort_key)
    out = ["### Score by quantization level, diffusion (ar)", "",
           "| " + " | ".join(headers) + " |", "|" + "|".join(" --- " for _ in headers) + "|"]
    for key in pairs:
        diff_r, ar_r = by_key[key]["diffusion"], by_key[key]["ar"]
        label = key[1] if key[0] == "baseline" else f"{key[1]} ({key[0]})"
        cells = [label] + [f"{score(diff_r, t)} ({score(ar_r, t)})" for t in task_names]
        out.append("| " + " | ".join(cells + [delta(diff_r), delta(ar_r)]) + " |")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Trend notes (reported, never asserted)


def trend_notes(results) -> dict:
    """Degradation-monotonicity violations and the AR-vs-diffusion gap."""
    ok = [r for r in results if r.status == "ok"]
    notes: dict = {"monotonicity_violations": [], "robustness_gap": {}}
    for model in sorted({r.model for r in ok}):
        for method in ("rtn", "gptq"):
            seq = sorted((r for r in ok if r.model == model and r.method == method),
                         key=lambda r: r.raw_bits)
            for lo, hi in zip(seq, seq[1:]):
                if lo.mean_score() > hi.mean_score() + 0.03:
                    notes["monotonicity_violations"].append(
                        f"{model} {method}: {lo.bits_or_plan} scores above {hi.bits_or_plan} "
                        f"by {lo.mean_score() - hi.mean_score():.3f}")
    base = {r.mode: r.mean_score() for r in ok if r.method == "baseline"}
    for bits in ("3bit", "4bit"):
        gp = {r.mode: r.mean_score() for r in ok if r.method == "gptq" and r.bits_or_plan == bits}
        if set(gp) == {"ar", "diffusion"} and set(base) == {"ar", "diffusion"}:
            drop_ar = base["ar"] - gp["ar"]
            drop_diff = base["diffusion"] - gp["diffusion"]
            notes["robustness_gap"][bits] = {
                "ar_drop": round(drop_ar, 6),
                "diffusion_drop": round(drop_diff, 6),
                "diffusion_more_robust": bool(drop_diff < drop_ar),
            }
    return notes


# ---------------------------------------------------------------------------
# CSV


def results_to_csv_text(results) -> str:
    """One row per (result, task); failed cells live only in the JSON mirror."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_FIELDS)
    for r in sorted((r for r in results if r.status == "ok"),
                    key=lambda r: (r.model, _row_sort_key(r), r.bits_or_plan)):
        for task in sorted(r.scores):
            writer.writerow([r.model, r.mode, r.method, r.bits_or_plan, task,
                             fmt(r.scores[task]), fmt(r.lat_mean_ms), fmt(r.lat_std_ms),
                             fmt(r.raw_bits), fmt(r.eff_bits), r.seed, r.config_hash])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# SVG charts


def _svg_header(width, height, title):
    return [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
            f'viewBox="0 0 {width} {height}">',
            f'<text x="{width / 2:.1f}" y="18" text-anchor="middle" font-size="14" '
            f'font-family="sans-serif">{title}</text>']


def _axis_ticks(lo, hi):
    """Five evenly spaced ticks; :func:`_svg_chart` makes every range non-empty."""
    return [lo + (hi - lo) * i / 4 for i in range(5)]


def _svg_chart(series: dict, xlabel: str, ylabel: str, title: str, labeled_points=()) -> str:
    width, height = 640, 420
    margin_l, margin_r, margin_t, margin_b = 60, 160, 34, 46
    xs = [x for pts in series.values() for x, _ in pts]
    ys = [y for pts in series.values() for _, y in pts]
    x_lo, x_hi = min(xs, default=0.0), max(xs, default=0.0)  # no points: empty axes
    y_lo, y_hi = min(ys, default=0.0), max(ys, default=0.0)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad_y = 0.06 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad_y, y_hi + pad_y
    plot_w = width - margin_l - margin_r
    plot_h = height - margin_t - margin_b

    def px(x):
        return margin_l + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y):
        return margin_t + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    out = _svg_header(width, height, title)
    out.append(f'<rect x="{margin_l}" y="{margin_t}" width="{plot_w}" height="{plot_h}" '
               f'fill="none" stroke="#333" stroke-width="1"/>')
    for tx in _axis_ticks(x_lo, x_hi):
        out.append(f'<line x1="{px(tx):.1f}" y1="{margin_t + plot_h}" x2="{px(tx):.1f}" '
                   f'y2="{margin_t + plot_h + 4}" stroke="#333"/>')
        out.append(f'<text x="{px(tx):.1f}" y="{margin_t + plot_h + 18}" text-anchor="middle" '
                   f'font-size="11" font-family="sans-serif">{tx:.3f}</text>')
    for ty in _axis_ticks(y_lo, y_hi):
        out.append(f'<line x1="{margin_l - 4}" y1="{py(ty):.1f}" x2="{margin_l}" '
                   f'y2="{py(ty):.1f}" stroke="#333"/>')
        out.append(f'<text x="{margin_l - 8}" y="{py(ty) + 4:.1f}" text-anchor="end" '
                   f'font-size="11" font-family="sans-serif">{ty:.3f}</text>')
    out.append(f'<text x="{margin_l + plot_w / 2:.1f}" y="{height - 8}" text-anchor="middle" '
               f'font-size="12" font-family="sans-serif">{xlabel}</text>')
    out.append(f'<text x="16" y="{margin_t + plot_h / 2:.1f}" text-anchor="middle" '
               f'font-size="12" font-family="sans-serif" '
               f'transform="rotate(-90 16 {margin_t + plot_h / 2:.1f})">{ylabel}</text>')

    for idx, name in enumerate(sorted(series)):
        color = _PALETTE[idx % len(_PALETTE)]
        pts = sorted(series[name])
        if len(pts) > 1:
            path = " ".join(f"{px(x):.1f},{py(y):.1f}" for x, y in pts)
            out.append(f'<polyline points="{path}" fill="none" stroke="{color}" '
                       f'stroke-width="1.5" data-series="{name}"/>')
        for x, y in pts:
            out.append(f'<circle cx="{px(x):.1f}" cy="{py(y):.1f}" r="3" fill="{color}" '
                       f'data-series="{name}"/>')
        ly = margin_t + 14 + 16 * idx
        out.append(f'<rect x="{width - margin_r + 8}" y="{ly - 9}" width="10" height="10" fill="{color}"/>')
        out.append(f'<text x="{width - margin_r + 22}" y="{ly}" font-size="11" '
                   f'font-family="sans-serif">{name}</text>')
    for label, x, y in labeled_points:
        out.append(f'<text x="{px(x) + 5:.1f}" y="{py(y) - 5:.1f}" font-size="10" '
                   f'font-family="sans-serif" fill="#000">{label}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def pareto_chart(results, frontier) -> str:
    """Score vs effective bits per model+method, with ``frontier`` (from
    :func:`pareto_frontier`) as its own series."""
    series: dict = {}
    labeled = []
    for r in results:
        if r.status != "ok":
            continue
        series.setdefault(f"{r.model} {r.method}", []).append((r.eff_bits, r.mean_score()))
        if r.method == "hawq":
            labeled.append((f"{r.model} {r.bits_or_plan}", r.eff_bits, r.mean_score()))
    series["pareto frontier"] = [(p.effective_avg_bits, p.score) for p in frontier]
    return _svg_chart(series, "effective average bits", "mean task score",
                      "Score vs memory with mixed-precision points", labeled_points=labeled)


# ---------------------------------------------------------------------------
# Emission


def emit(results, out_dir) -> dict:
    """Write the report files; returns {name: path}. Deterministic bytes.

    Each file is written atomically, and a file that already holds its bytes
    is not rewritten. The manifest, written last, records a digest of the
    inputs (every field of every result, in order, and the renderer) and the
    sha256 of each file written. When a later call finds the same input
    digest and every file still holding its recorded sha256, it renders
    nothing. A missing, unreadable or stale manifest, or one left by a run
    that failed part way, makes the call render again.
    """
    out_dir = Path(out_dir)
    paths = {name: out_dir / name for name in REPORT_FILES}
    inputs = _inputs_digest(results)
    try:
        current = {name: path.read_bytes() for name, path in paths.items()}
        if (out_dir / MANIFEST).read_bytes() == _manifest(inputs, current).encode():
            return paths
    except OSError:
        pass  # a missing or unreadable file or manifest: render
    written = {}

    def put(name, text):
        written[name] = text.encode("utf-8")
        write_atomic(paths[name], written[name])

    put("results.csv", results_to_csv_text(results))
    frontier, dominated = pareto_frontier(points_from_results(results))
    doc = {
        "results": [r.to_dict() for r in
                    sorted(results, key=lambda r: (r.model, _row_sort_key(r), r.bits_or_plan))],
        "pareto": {"frontier": [p.label for p in frontier],
                   "dominated": [p.label for p in dominated]},
        "trends": trend_notes(results),
    }
    put("report.json", json.dumps(doc, indent=2, sort_keys=True) + "\n")
    put("table.md", degradation_table(results))
    put("pareto.svg", pareto_chart(results, frontier))
    write_atomic(out_dir / MANIFEST, _manifest(inputs, written))
    return paths


@functools.cache
def _renderer_digest() -> str:
    """sha256 of the code that turns results into report bytes, read once:
    this module and the one that defines CSV_FIELDS and EvalResult.mean_score."""
    code = Path(__file__).read_bytes() + Path(evaluation.__file__).read_bytes()
    return hashlib.sha256(code).hexdigest()


def _inputs_digest(results) -> str:
    """sha256 of everything :func:`emit` renders from: the results, in order, and the renderer."""
    doc = {"renderer": _renderer_digest(), "results": [r.to_dict() for r in results]}
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def _manifest(inputs: str, files: dict) -> str:
    """The manifest text for an input digest and the report files' bytes."""
    doc = {"inputs": inputs,
           "files": {name: hashlib.sha256(blob).hexdigest() for name, blob in files.items()}}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"

"""Turn grid results into tables, charts, and frontier classifications.

All emission is byte-deterministic: rows are sorted, floats are fixed to
three decimals, and charts are hand-written SVG (text, diffable, no
graphics dependency).
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .errors import ContractError, ParameterError
from .evaluation import CSV_FIELDS, EvalResult

FMT = "{:.3f}"

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
    dominated: bool = False


def pareto_frontier(points):
    """(frontier sorted by bits ascending, dominated list).

    Maximize score, minimize bits. A point is dominated when another point
    has <= bits and >= score with at least one strict; among exact
    duplicates the first label in sort order survives.
    """
    if not points:
        raise ParameterError("need at least one point")
    for p in points:
        p.dominated = False
        for q in points:
            if q is p:
                continue
            better = (q.effective_avg_bits <= p.effective_avg_bits and q.score >= p.score
                      and (q.effective_avg_bits < p.effective_avg_bits or q.score > p.score))
            duplicate = (q.effective_avg_bits == p.effective_avg_bits
                         and q.score == p.score and q.label < p.label)
            if better or duplicate:
                p.dominated = True
                break
    frontier = sorted((p for p in points if not p.dominated),
                      key=lambda p: (p.effective_avg_bits, -p.score, p.label))
    dominated = sorted((p for p in points if p.dominated),
                       key=lambda p: (p.effective_avg_bits, -p.score, p.label))
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


@dataclass
class TableModel:
    title: str
    headers: list
    rows: list = field(default_factory=list)  # list of list[str]


def _row_sort_key(r: EvalResult):
    bits = r.raw_bits if np.isfinite(r.raw_bits) else 99.0
    return (_METHOD_ORDER.get(r.method, 9), bits, r.bits_or_plan)


def build_degradation_table(results) -> TableModel:
    """Rows per quantization level, cells 'diffusion (ar)', deltas vs baseline.

    Requires the 16-bit baseline row for both models.
    """
    ok = [r for r in results if r.status == "ok"]
    by_key: dict = {}
    for r in ok:
        by_key.setdefault((r.method, r.bits_or_plan), {})[r.mode] = r
    baseline = by_key.get(("baseline", "16bit"), {})
    if "ar" not in baseline or "diffusion" not in baseline:
        raise ContractError("degradation table needs a 16-bit baseline for both models")

    task_names = sorted({t for r in ok for t in r.scores})
    headers = ["quantization"] + task_names + ["delta diffusion", "delta ar"]
    base_mean = {m: baseline[m].mean_score() for m in ("diffusion", "ar")}

    pairs = sorted({k for k in by_key if "ar" in by_key[k] and "diffusion" in by_key[k]},
                   key=lambda k: _row_sort_key(by_key[k]["diffusion"]))
    rows = []
    for key in pairs:
        diff_r = by_key[key]["diffusion"]
        ar_r = by_key[key]["ar"]
        label = key[1] if key[0] == "baseline" else f"{key[1]} ({key[0]})"
        cells = [label]
        for t in task_names:
            cells.append(f"{fmt(diff_r.scores.get(t, float('nan')))} "
                         f"({fmt(ar_r.scores.get(t, float('nan')))})")
        cells.append(fmt(diff_r.mean_score() - base_mean["diffusion"]))
        cells.append(fmt(ar_r.mean_score() - base_mean["ar"]))
        rows.append(cells)
    return TableModel("Score by quantization level, diffusion (ar)", headers, rows)


def render_markdown(table: TableModel) -> str:
    out = [f"### {table.title}", ""]
    out.append("| " + " | ".join(table.headers) + " |")
    out.append("|" + "|".join(" --- " for _ in table.headers) + "|")
    for row in table.rows:
        out.append("| " + " | ".join(row) + " |")
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
# CSV / JSONL round trip


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


def results_from_csv_text(text: str) -> list:
    rows = list(csv.DictReader(io.StringIO(text)))
    grouped: dict = {}
    for row in rows:
        grouped.setdefault(row["config_hash"], []).append(row)
    results = []
    for config_hash, group in grouped.items():
        first = group[0]
        scores = {g["task"]: float(g["score"]) for g in group}
        results.append(EvalResult(first["model"], first["mode"], first["method"],
                                  first["bits_or_plan"], scores,
                                  float(first["lat_mean_ms"]), float(first["lat_std_ms"]),
                                  float(first["raw_bits"]), float(first["eff_bits"]),
                                  int(first["seed"]), config_hash))
    results.sort(key=lambda r: (r.model, _row_sort_key(r), r.bits_or_plan))
    return results


def results_to_jsonl(results) -> str:
    lines = [json.dumps(asdict(r), sort_keys=True) for r in
             sorted(results, key=lambda r: (r.model, _row_sort_key(r), r.bits_or_plan))]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# SVG charts


def _svg_header(width, height, title):
    return [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
            f'viewBox="0 0 {width} {height}">',
            f'<text x="{width / 2:.1f}" y="18" text-anchor="middle" font-size="14" '
            f'font-family="sans-serif">{title}</text>']


def _axis_ticks(lo, hi, n=5):
    if hi <= lo:
        hi = lo + 1.0
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def _svg_chart(series: dict, xlabel: str, ylabel: str, title: str,
               labeled_points=(), width=640, height=420) -> str:
    margin_l, margin_r, margin_t, margin_b = 60, 160, 34, 46
    xs = [x for pts in series.values() for x, _ in pts]
    ys = [y for pts in series.values() for _, y in pts]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
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


def latency_chart(results) -> str:
    series: dict = {}
    for r in results:
        if r.status != "ok" or not np.isfinite(r.lat_mean_ms):
            continue
        series.setdefault(f"{r.model} {r.method}", []).append((r.raw_bits, r.lat_mean_ms))
    if not series:
        raise ContractError("no latency data to chart")
    return _svg_chart(series, "average weight bits", "latency per step (ms)",
                      "Latency vs precision")


def pareto_chart(results) -> str:
    points = points_from_results(results)
    frontier, _ = pareto_frontier(points)
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
    """Write the report artifacts; returns {name: path}. Deterministic bytes."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = {}
    path = out_dir / "results.csv"
    path.write_text(results_to_csv_text(results))
    written["results.csv"] = path
    points = points_from_results(results)
    frontier, dominated = pareto_frontier(points) if points else ([], [])
    doc = {
        "results": [asdict(r) for r in
                    sorted(results, key=lambda r: (r.model, _row_sort_key(r), r.bits_or_plan))],
        "pareto": {"frontier": [p.label for p in frontier],
                   "dominated": [p.label for p in dominated]},
        "trends": trend_notes(results),
    }
    path = out_dir / "report.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    written["report.json"] = path
    jsonl = out_dir / "results.jsonl"
    jsonl.write_text(results_to_jsonl(results))
    written["results.jsonl"] = jsonl
    path = out_dir / "table.md"
    path.write_text(render_markdown(build_degradation_table(results)))
    written["table.md"] = path
    lat = out_dir / "latency.svg"
    lat.write_text(latency_chart(results))
    written["latency.svg"] = lat
    par = out_dir / "pareto.svg"
    par.write_text(pareto_chart(results))
    written["pareto.svg"] = par
    return written

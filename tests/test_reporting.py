import csv
import io
import os
import re
from pathlib import Path

import numpy as np
import pytest

import ptqlab.reporting as reporting
from ptqlab.evaluation import EvalResult
from ptqlab.numerics import make_rng
from ptqlab.reporting import (MANIFEST, ParetoPoint, degradation_table, emit, latency_chart,
                              pareto_chart, pareto_frontier, points_from_results,
                              results_to_csv_text, trend_notes)

GOLDEN = Path(__file__).parent / "golden" / "table.md"
README = Path(__file__).resolve().parents[1] / "README.md"


def fixture_result(model, mode, method, plan, scores, raw, lat=10.0, lat_std=0.3):
    return EvalResult(model, mode, method, plan, scores, lat, lat_std, raw,
                      raw + (0.125 if raw < 16 else 0.0), 0, f"h{model}{method}{plan}")


def failed(r):
    """``r`` as the grid records a cell that raised: no scores, NaN figures."""
    nan = float("nan")
    return EvalResult(r.model, r.mode, r.method, r.bits_or_plan, {}, nan, nan, nan, nan, r.seed,
                      r.config_hash, status="failed", error="RuntimeError: injected")


def table1_fixture():
    rows = []
    for mode, model in (("diffusion", "toy-diffusion"), ("ar", "toy-ar")):
        d = mode == "diffusion"
        rows += [
            fixture_result(model, mode, "baseline", "16bit",
                           {"copy": 0.481 if d else 0.671, "reverse": 0.439 if d else 0.628}, 16.0),
            fixture_result(model, mode, "gptq", "8bit",
                           {"copy": 0.481 if d else 0.665, "reverse": 0.421 if d else 0.616}, 8.0),
            fixture_result(model, mode, "gptq", "4bit",
                           {"copy": 0.457 if d else 0.439, "reverse": 0.421 if d else 0.409}, 4.0),
            fixture_result(model, mode, "gptq", "3bit",
                           {"copy": 0.317 if d else 0.0, "reverse": 0.292 if d else 0.0}, 3.0),
            fixture_result(model, mode, "gptq", "2bit", {"copy": 0.0, "reverse": 0.0}, 2.0),
        ]
    return rows


RENDERERS = ("results_to_csv_text", "degradation_table", "latency_chart", "pareto_chart")


def refuse(*args, **kwargs):
    raise AssertionError("rendered a report whose inputs did not change")


def report_files(out: Path) -> dict:
    return {p.name: p.read_bytes() for p in out.iterdir()}


# Each takes the results, the report directory and monkeypatch, leaves the
# report stale, and returns the results of the next emit.
def delete_a_report_file(results, out, monkeypatch):
    (out / "table.md").unlink()
    return results


def edit_one_byte(results, out, monkeypatch):
    path = out / "latency.svg"
    blob = bytearray(path.read_bytes())
    blob[100] ^= 1
    path.write_bytes(bytes(blob))
    return results


def change_a_score(results, out, monkeypatch):
    results[3].scores["copy"] = 0.25
    return results


def change_a_latency(results, out, monkeypatch):
    results[6].lat_mean_ms = 11.0
    return results


def change_an_error(results, out, monkeypatch):
    results[0].error = "a note"  # shows in report.json alone
    return results


def change_the_renderer(results, out, monkeypatch):
    monkeypatch.setattr(reporting, "_renderer_digest", lambda: "another renderer")
    return results


def corrupt_the_manifest(results, out, monkeypatch):
    path = out / MANIFEST
    path.write_text(path.read_text()[:40])
    return results


def fail_at_the_third_report_file(results, out, monkeypatch):
    """A run with new scores dies writing table.md; the next run has the old results,
    so only the file digests can tell that results.csv and report.json changed."""
    real, calls = reporting.write_atomic, []

    def write_atomic(path, data):
        calls.append(path.name)
        if len(calls) == 3:
            raise OSError("injected: disk full")
        real(path, data)

    changed = table1_fixture()
    changed[3].scores["copy"] = 0.25
    monkeypatch.setattr(reporting, "write_atomic", write_atomic)
    with pytest.raises(OSError, match="injected"):
        emit(changed, out)
    monkeypatch.setattr(reporting, "write_atomic", real)
    assert calls == ["results.csv", "report.json", "table.md"]
    return results


class TestPareto:
    def test_single_point(self):
        frontier, dominated = pareto_frontier([ParetoPoint("only", 4.0, 0.5)])
        assert [p.label for p in frontier] == ["only"]
        assert dominated == []

    def test_reference_example(self):
        pts = [ParetoPoint("a", 4.0, 0.5), ParetoPoint("b", 8.0, 0.6), ParetoPoint("c", 6.0, 0.7)]
        frontier, dominated = pareto_frontier(pts)
        assert [p.label for p in dominated] == ["b"]  # dominated by c
        assert [p.label for p in frontier] == ["a", "c"]

    def test_duplicates_first_label_survives(self):
        pts = [ParetoPoint("beta", 4.0, 0.5), ParetoPoint("alpha", 4.0, 0.5)]
        frontier, dominated = pareto_frontier(pts)
        assert [p.label for p in frontier] == ["alpha"]
        assert [p.label for p in dominated] == ["beta"]

    def test_matches_brute_force_oracle(self):
        rng = make_rng(77)
        pts = [ParetoPoint(f"p{i:03d}", float(rng.integers(2, 17)),
                           float(np.round(rng.random(), 2))) for i in range(300)]
        frontier, dominated = pareto_frontier(pts)

        def oracle_dominated(p):
            for q in pts:
                if q is p:
                    continue
                if (q.effective_avg_bits <= p.effective_avg_bits and q.score >= p.score
                        and (q.effective_avg_bits < p.effective_avg_bits or q.score > p.score)):
                    return True
                if (q.effective_avg_bits == p.effective_avg_bits and q.score == p.score
                        and q.label < p.label):
                    return True
            return False

        got = {p.label for p in dominated}
        want = {p.label for p in pts if oracle_dominated(p)}
        assert got == want
        bits = [p.effective_avg_bits for p in frontier]
        assert bits == sorted(bits)

    def test_empty_has_an_empty_frontier(self):
        assert pareto_frontier([]) == ([], [])


class TestDegradationTable:
    def test_golden_markdown(self):
        assert degradation_table(table1_fixture()) == GOLDEN.read_text()

    def test_cell_and_collapse_formatting(self):
        md = degradation_table(table1_fixture())
        assert "0.457 (0.439)" in md
        assert "0.000 (0.000)" in md

    def test_baseline_deltas_zero(self):
        (baseline_row,) = [line for line in degradation_table(table1_fixture()).splitlines()
                           if line.startswith("| 16bit |")]
        assert baseline_row.endswith("| 0.000 | 0.000 |")

    def test_a_failed_cell_keeps_its_level(self):
        # the other model's scores of that level stay in the table; charts
        # and frontier leave the failed cell out
        ok = table1_fixture()
        results = [failed(r) if (r.model, r.bits_or_plan) == ("toy-ar", "4bit") else r
                   for r in ok]
        rows = degradation_table(results).splitlines()
        assert rows[-3] == "| 4bit (gptq) | 0.457 (failed) | 0.421 (failed) | -0.021 | failed |"
        assert rows[:-3] + rows[-2:] == [row for row in GOLDEN.read_text().splitlines()
                                         if not row.startswith("| 4bit")]
        kept = [r for r in results if r.status == "ok"]
        assert points_from_results(results) == points_from_results(kept)
        assert len(points_from_results(kept)) == len(ok) - 1
        assert latency_chart(results) == latency_chart(kept)
        frontier, _ = pareto_frontier(points_from_results(kept))
        assert pareto_chart(results, frontier) == pareto_chart(kept, frontier)
        both = [failed(r) if r.bits_or_plan == "4bit" else r for r in ok]
        assert "| 4bit (gptq) | failed (failed) | failed (failed) | failed | failed |" in \
            degradation_table(both).splitlines()

    def test_missing_baseline_leaves_its_deltas_blank(self):
        rows = [r for r in table1_fixture() if r.method != "baseline"]
        want = [re.sub(r"\| -?\d\.\d{3} \| -?\d\.\d{3} \|$", "|  |  |", row)
                for row in GOLDEN.read_text().splitlines() if not row.startswith("| 16bit")]
        assert degradation_table(rows).splitlines() == want


class TestCsvRoundTrip:
    def test_lossless_round_trip(self):
        results = table1_fixture()
        cells = {(r.model, r.bits_or_plan, task): (r, score)
                 for r in results for task, score in r.scores.items()}
        for row in csv.DictReader(io.StringIO(results_to_csv_text(results))):
            r, score = cells.pop((row["model"], row["bits_or_plan"], row["task"]))
            assert (row["mode"], row["method"], int(row["seed"]), row["config_hash"]) == \
                (r.mode, r.method, r.seed, r.config_hash)
            for column, value in (("score", score), ("lat_mean_ms", r.lat_mean_ms),
                                  ("lat_std_ms", r.lat_std_ms), ("raw_bits", r.raw_bits),
                                  ("eff_bits", r.eff_bits)):
                assert float(row[column]) == round(value, 3), column
        assert not cells  # one row per (cell, task)

    def test_paper_latency_values_survive(self):
        r = fixture_result("toy-ar", "ar", "baseline", "16bit", {"copy": 0.5}, 16.0,
                           lat=26.843, lat_std=0.305)
        text = results_to_csv_text([r])
        assert "26.843" in text and "0.305" in text
        (row,) = csv.DictReader(io.StringIO(text))
        assert float(row["lat_mean_ms"]) == 26.843
        assert float(row["lat_std_ms"]) == 0.305


class TestTrendNotes:
    def test_monotonicity_violation_flagged_above_3_points(self):
        results = table1_fixture()
        bumped = fixture_result("toy-ar", "ar", "gptq", "2bit",
                                {"copy": 0.9, "reverse": 0.9}, 2.0)
        results = [r for r in results if not (r.model == "toy-ar" and r.bits_or_plan == "2bit")]
        results.append(bumped)
        notes = trend_notes(results)
        assert any("toy-ar gptq" in v for v in notes["monotonicity_violations"])

    def test_robustness_gap_reported_not_asserted(self):
        notes = trend_notes(table1_fixture())
        assert notes["robustness_gap"]["3bit"]["diffusion_more_robust"] is True
        assert "4bit" in notes["robustness_gap"]


class TestEmission:
    def test_deterministic_bytes_and_formats(self, tmp_path):
        results = table1_fixture()
        first = emit(results, tmp_path / "a")
        second = emit(results, tmp_path / "b")
        assert set(first) == {"results.csv", "report.json", "table.md", "latency.svg",
                              "pareto.svg"}
        for name in first:
            assert first[name].read_bytes() == second[name].read_bytes()

    def test_readme_workspace_layout_names_the_report_files(self, tmp_path):
        layout = README.read_text().split("## Workspace layout")[1].split("```")[1]
        # an entry is "report/<file>" or "report/<file>, <file>", then its description
        names = {name for m in re.finditer(r"^\s*report/([^\s,]+(?:, [^\s,]+)*)", layout, re.M)
                 for name in m.group(1).split(", ")}
        assert names == set(emit(table1_fixture(), tmp_path))

    def test_unchanged_inputs_render_nothing(self, tmp_path, monkeypatch):
        results = table1_fixture()
        written = emit(results, tmp_path)
        for p in tmp_path.iterdir():
            os.utime(p, ns=(10**18, 10**18))  # a rewrite in the same clock tick still shows
        before = report_files(tmp_path)
        assert set(before) == set(written) | {MANIFEST}
        for name in RENDERERS:
            monkeypatch.setattr(reporting, name, refuse)
        assert emit(table1_fixture(), tmp_path) == written
        assert report_files(tmp_path) == before
        assert all(p.stat().st_mtime_ns == 10**18 for p in tmp_path.iterdir())

    def test_mean_score_ignores_the_order_of_the_scores(self):
        # the input digest sorts keys, so the render must not depend on score order
        forward = fixture_result("toy-ar", "ar", "rtn", "4bit",
                                 {"copy": 0.1, "pattern_completion": 0.2, "reverse": 0.3}, 4.0)
        backward = fixture_result("toy-ar", "ar", "rtn", "4bit",
                                  dict(reversed(forward.scores.items())), 4.0)
        assert forward.mean_score() == backward.mean_score()

    @pytest.mark.parametrize("change", [
        delete_a_report_file, edit_one_byte, change_a_score, change_a_latency,
        change_an_error, change_the_renderer, corrupt_the_manifest,
        fail_at_the_third_report_file])
    def test_stale_report_is_rendered_again(self, tmp_path, monkeypatch, change):
        results = table1_fixture()
        emit(results, tmp_path / "report")
        results = change(results, tmp_path / "report", monkeypatch)
        rendered = []
        monkeypatch.setattr(reporting, "degradation_table",
                            lambda rs: rendered.append(1) or degradation_table(rs))
        emit(results, tmp_path / "report")
        assert rendered == [1]
        emit(results, tmp_path / "fresh")
        assert report_files(tmp_path / "report") == report_files(tmp_path / "fresh")

    def test_a_failed_baseline_is_rendered(self, tmp_path):
        # the report of the last run is replaced whole, not left beside the new CSV
        ok, out = table1_fixture(), tmp_path / "report"
        emit(ok, out)
        results = [failed(r) if (r.model, r.method) == ("toy-ar", "baseline") else r for r in ok]
        written = emit(results, out)
        assert set(report_files(out)) == set(written) | {MANIFEST}
        emit(results, tmp_path / "fresh")
        assert report_files(out) == report_files(tmp_path / "fresh")
        rows = (out / "table.md").read_text().splitlines()
        assert rows[-1] == "| 16bit | 0.481 (failed) | 0.439 (failed) | 0.000 | failed |"
        assert rows[4].endswith("| -0.460 |  |")  # 2bit: no ar baseline to compare with
        assert "toy-ar baseline" not in (out / "latency.svg").read_text()

    def test_an_all_failed_grid_is_rendered(self, tmp_path):
        results = [failed(r) for r in table1_fixture()]
        written = emit(results, tmp_path)
        assert set(report_files(tmp_path)) == set(written) | {MANIFEST}
        assert (tmp_path / "results.csv").read_text().count("\n") == 1  # the header
        rows = (tmp_path / "table.md").read_text().splitlines()
        assert rows[2] == "| quantization | delta diffusion | delta ar |"
        assert rows[4:] == [f"| {label} | failed | failed |"
                            for label in ("2bit (gptq)", "3bit (gptq)", "4bit (gptq)",
                                          "8bit (gptq)", "16bit")]
        for chart in ("latency.svg", "pareto.svg"):
            assert "<circle" not in (tmp_path / chart).read_text()

    def test_svg_series_per_model_method(self):
        svg = latency_chart(table1_fixture())
        for name in ("toy-ar baseline", "toy-ar gptq", "toy-diffusion baseline",
                     "toy-diffusion gptq"):
            assert f'data-series="{name}"' in svg

    def test_pareto_chart_labels_hawq_points(self):
        results = table1_fixture()
        results.append(fixture_result("toy-diffusion", "diffusion", "hawq", "hawq-16/8",
                                      {"copy": 0.47, "reverse": 0.43}, 12.0))
        results.append(fixture_result("toy-ar", "ar", "hawq", "hawq-16/8",
                                      {"copy": 0.65, "reverse": 0.6}, 12.0))
        frontier, _ = pareto_frontier(points_from_results(results))
        svg = pareto_chart(results, frontier)
        assert "toy-diffusion hawq-16/8" in svg
        assert "pareto frontier" in svg

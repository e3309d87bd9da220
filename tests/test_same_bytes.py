"""tools/same_bytes.py's comparison of two workspaces."""

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "same_bytes.py"
spec = importlib.util.spec_from_file_location("same_bytes", TOOL)
same_bytes = importlib.util.module_from_spec(spec)
spec.loader.exec_module(same_bytes)

CSV_HEAD = "model,task,score,lat_mean_ms,lat_std_ms,config_hash\n"


def write_workspace(root: Path, lat: float, score: float = 0.5) -> Path:
    """A workspace with each file kind the tool reads, timed at ``lat`` ms."""
    entry = {"scores": {"copy": score}, "lat_mean_ms": lat, "lat_std_ms": lat / 10}
    failed = {"scores": {}, "lat_mean_ms": float("nan"), "raw_bits": float("nan")}
    files = {
        "cache/abc.json": json.dumps(entry),
        "report/report.json": json.dumps({"results": [entry, failed], "trends": {}}),
        "report/results.csv": CSV_HEAD + f"toy-ar,copy,{score:.3f},{lat:.3f},{lat / 10:.3f},abc\n",
        "report/.manifest.json": json.dumps({"inputs": str(lat)}),
        "checkpoints/ar.ckpt": "weights",
    }
    for name, text in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(text)
    return root


def test_latency_and_the_manifest_are_left_out(tmp_path):
    old = write_workspace(tmp_path / "old", lat=2.5)
    new = write_workspace(tmp_path / "new", lat=3.75)
    assert same_bytes.differences(old, new) == []


def test_every_other_change_is_listed(tmp_path):
    old = write_workspace(tmp_path / "old", lat=2.5)
    new = write_workspace(tmp_path / "new", lat=2.5, score=0.75)
    (old / "report" / "chart.svg").write_text("<svg/>")
    (new / "checkpoints" / "ar.ckpt").write_text("other weights")
    (new / "cache" / "def.json").write_text("{")
    assert same_bytes.differences(old, new) == [  # in name order
        "differs: cache/abc.json", "only in this tree: cache/def.json",
        "differs: checkpoints/ar.ckpt", "only at REV: report/chart.svg",
        "differs: report/report.json", "differs: report/results.csv"]

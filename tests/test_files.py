"""Workspace files are replaced whole or not at all, and unchanged files are left alone."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from ptqlab.files import write_atomic
from ptqlab.model import ModelConfig, new_checkpoint
from ptqlab.reporting import emit
from test_reporting import table1_fixture

TINY = ModelConfig(mode="ar", d_model=8, n_layers=1, n_heads=2, d_ff=16, max_seq_len=32)


def files(root: Path) -> dict:
    return {p: p.read_bytes() for p in root.rglob("*") if p.is_file()}


def fail_on_replace(monkeypatch):
    def replace(src, dst):
        raise OSError("injected: rename failed")

    monkeypatch.setattr(os, "replace", replace)


def fail_halfway_through_the_write(monkeypatch):
    real = Path.write_bytes

    def write_bytes(self, data):
        real(self, data[:len(data) // 2])
        raise OSError("injected: disk full")

    monkeypatch.setattr(Path, "write_bytes", write_bytes)


@pytest.mark.parametrize("inject", [fail_on_replace, fail_halfway_through_the_write])
def test_failed_write_keeps_the_previous_bytes(tmp_path, monkeypatch, inject):
    ckpt = tmp_path / "model.ckpt"
    new_checkpoint(TINY, seed=0).save(ckpt)
    results = table1_fixture()
    emit(results, tmp_path / "report")
    before = files(tmp_path)

    inject(monkeypatch)
    with pytest.raises(OSError, match="injected"):
        new_checkpoint(TINY, seed=1).save(ckpt)
    results[0].scores["copy"] = 0.5
    with pytest.raises(OSError, match="injected"):
        emit(results, tmp_path / "report")
    assert files(tmp_path) == before  # old bytes intact, no temp file left


def test_unchanged_bytes_are_not_rewritten(tmp_path):
    path = tmp_path / "a.json"
    write_atomic(path, "{}\n")
    os.utime(path, ns=(10**18, 10**18))
    write_atomic(path, b"{}\n")
    assert path.stat().st_mtime_ns == 10**18
    write_atomic(path, "[]\n")
    assert path.read_text() == "[]\n" and path.stat().st_mtime_ns != 10**18
    assert [p.name for p in tmp_path.iterdir()] == ["a.json"]


def test_a_write_makes_its_missing_directories(tmp_path):
    path = tmp_path / "ws" / "cache" / "a.json"
    write_atomic(path, "{}\n")
    assert path.read_text() == "{}\n"
    assert [p.name for p in path.parent.iterdir()] == ["a.json"]


# A writer killed between writing its temp file and moving it into place.
KILLED_WRITER = """
import os, sys
from ptqlab.files import write_atomic
os.replace = lambda src, dst: os._exit(0)
write_atomic(sys.argv[1], "killed\\n")
"""


def test_a_write_removes_the_temp_file_of_a_killed_writer(tmp_path):
    path = tmp_path / "ws" / "logs" / "train_ar.csv"
    src = str(Path(__file__).resolve().parents[1] / "src")
    subprocess.run([sys.executable, "-c", KILLED_WRITER, str(path)], check=True,
                   env={**os.environ, "PYTHONPATH": src})
    orphans = [p.name for p in path.parent.iterdir()]
    assert len(orphans) == 1 and orphans[0].startswith(".train_ar.csv.")
    live = path.with_name(f".train_ar.csv.{os.getppid()}.tmp")
    live.write_text("a live writer's\n")
    no_pid = path.with_name(f".train_ar.csv.{10**20}.tmp")
    no_pid.write_text("not a pid\n")

    write_atomic(path, "step,loss\n")
    assert path.read_text() == "step,loss\n"
    assert sorted(p.name for p in path.parent.iterdir()) == sorted(
        [live.name, no_pid.name, "train_ar.csv"])

"""Compare the workspace that ``ptqlab reproduce`` writes at a git revision
with the one this tree writes, outside the timed latency fields.

    python3 tools/same_bytes.py REV -c CONFIG

It checks REV out in a ``git worktree`` under a temporary directory and runs
``reproduce -c CONFIG`` with that tree's ``src``, removes the worktree,
moves the workspace aside, and runs ``reproduce`` again with this tree's
``src``: both runs write at CONFIG's one workspace path, so path-dependent
bytes match. It then lists every file that is in one workspace only or
differs. Latency is wall-clock and never repeats, so a cache entry is
compared without ``lat_mean_ms``/``lat_std_ms``, ``report/results.csv``
without those two columns and ``report/report.json`` without its results'
latency fields, and ``report/.manifest.json``, which hashes the report
files, is skipped. Every other file is compared byte for byte.

The workspace path must not exist beforehand. This tree's workspace is left
there; REV's is deleted with the temporary directory. Exits 1 when any file
differs, 0 when none does.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LATENCY = ("lat_mean_ms", "lat_std_ms")
SKIPPED = {"report/.manifest.json"}


def reproduce(src: Path, config: Path) -> None:
    """``ptqlab reproduce -c config`` with the package in ``src``."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    subprocess.run([sys.executable, "-m", "ptqlab.cli", "reproduce", "-c", str(config)],
                   env=env, check=True, stdout=subprocess.DEVNULL)


def _without_latency(name: str, blob: bytes):
    """What workspace file ``name`` holds besides latency: its bytes, or for the
    three files that record latency their content without it (as sorted JSON
    text, so that NaN equals NaN)."""
    try:
        if name.startswith("cache/") and name.endswith(".json"):
            entry = {k: v for k, v in json.loads(blob).items() if k not in LATENCY}
            return json.dumps(entry, sort_keys=True)
        if name == "report/report.json":
            doc = json.loads(blob)
            doc["results"] = [{k: v for k, v in r.items() if k not in LATENCY}
                              for r in doc["results"]]
            return json.dumps(doc, sort_keys=True)
        if name == "report/results.csv":
            rows = list(csv.reader(io.StringIO(blob.decode())))
            kept = [i for i, column in enumerate(rows[0]) if column not in LATENCY]
            return [[row[i] for i in kept] for row in rows]
    except (ValueError, TypeError, KeyError, IndexError):
        pass  # not in the written format: compare the bytes
    return blob


def differences(old: Path, new: Path) -> list:
    """One line per file of workspace ``old`` or ``new`` that differs outside latency."""
    def files(root):
        return {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}

    lines = []
    for name in sorted((files(old) | files(new)) - SKIPPED):
        a, b = old / name, new / name
        if not b.is_file():
            lines.append(f"only at REV: {name}")
        elif not a.is_file():
            lines.append(f"only in this tree: {name}")
        elif _without_latency(name, a.read_bytes()) != _without_latency(name, b.read_bytes()):
            lines.append(f"differs: {name}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="git revision to compare this tree with")
    parser.add_argument("-c", "--config", required=True, help="pipeline config JSON")
    args = parser.parse_args(argv)
    config = Path(args.config).resolve()
    workspace = Path(json.loads(config.read_text())["workspace"]).resolve()
    if workspace.exists():
        parser.error(f"workspace {workspace} exists; both runs need it fresh")
    with tempfile.TemporaryDirectory(prefix="same_bytes_") as tmp:
        tree, moved = Path(tmp, "tree"), Path(tmp, "workspace")
        subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--quiet", "--detach",
                        str(tree), args.rev], check=True)
        try:
            reproduce(tree / "src", config)
        finally:
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force", str(tree)],
                           check=True)
        shutil.move(workspace, moved)
        reproduce(ROOT / "src", config)
        lines = differences(moved, workspace)
    for line in lines:
        print(line)
    print(f"{len(lines)} differing file(s) between {args.rev} and this tree")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())

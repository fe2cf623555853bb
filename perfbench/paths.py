"""Locations shared by ``run.py`` and ``worker.py``."""

from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]  # the checkout
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"  # everything a run writes goes here
PASS_RECORD = OUT / "pass.json"  # one worker's result, read by run.py after each pass

"""Smoke tests: the example scripts must run end to end.

Only the three fastest examples run here (the others exercise the same APIs
with bigger workloads and are covered by running them directly); each is
executed in-process via runpy with its own ``__main__`` guard honoured.
"""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).parent.parent / "examples"


def _run(name: str, capsys) -> str:
    runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    return capsys.readouterr().out


def test_quickstart(capsys):
    out = _run("quickstart.py", capsys)
    assert "verified against Kruskal: OK" in out
    assert "filter-boruvka" in out


def test_image_segmentation(capsys):
    out = _run("image_segmentation.py", capsys)
    assert "segments found: 4" in out
    assert "OK" in out


def test_single_linkage_clustering(capsys):
    out = _run("single_linkage_clustering.py", capsys)
    assert "clusters after cutting down to 5 components: 5" in out
    assert "OK" in out

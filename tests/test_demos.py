import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_import_existing_names_and_demo_01_runs():
    # Every name a demo imports from the package must exist in it.  Running
    # them all would take over a minute, so only the quick demo 01 is run.
    missing = []
    for demo in DEMOS:
        for node in ast.walk(ast.parse(demo.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("subtrack"):
                module = importlib.import_module(node.module)
                missing += [f"{demo.name}: {node.module}.{alias.name}"
                            for alias in node.names if not hasattr(module, alias.name)]
    assert len(DEMOS) >= 3 and missing == []

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    demo_01 = DEMOS[0]
    assert demo_01.name == "01_channel_and_subspace.py"
    proc = subprocess.run([sys.executable, str(demo_01)], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr

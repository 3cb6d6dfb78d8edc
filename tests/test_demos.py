import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import subtrack

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


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

    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    demo_01 = DEMOS[0]
    assert demo_01.name == "01_channel_and_subspace.py"
    proc = subprocess.run([sys.executable, str(demo_01)], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr


def test_readme_python_block_uses_existing_names():
    # Each ``alias.<name>`` the README's library snippet reads off
    # ``import subtrack as alias`` must exist in the package, and the snippet
    # must parse.
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", readme, flags=re.S | re.M)
    assert blocks
    used = set()
    for block in blocks:
        tree = ast.parse(block)
        aliases = {alias.asname or alias.name for node in ast.walk(tree)
                   if isinstance(node, ast.Import)
                   for alias in node.names if alias.name == "subtrack"}
        used |= {node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                 and node.value.id in aliases}
    assert used and sorted(n for n in used if not hasattr(subtrack, n)) == []

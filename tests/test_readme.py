"""The README's library quickstart runs against the current library, and
every value its ``# ->`` comments state that reads as a Python literal is
what the line computes."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _quickstart():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quickstart", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def _with_asserts(code):
    """Turn ``expr  # -> value`` into ``assert (expr) == (value)`` where the
    value is a literal; other lines run as written."""
    out = []
    for line in code.splitlines():
        expr, sep, claim = line.partition("# -> ")
        try:
            ast.literal_eval(claim.strip())
        except (SyntaxError, ValueError):
            out.append(line)
            continue
        out.append(f"assert ({expr.strip()}) == ({claim.strip()}), {expr.strip()!r}")
    return "\n".join(out) + "\n"


def test_quickstart_runs():
    code = _with_asserts(_quickstart())
    assert code.count("assert (") >= 4
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr

"""The kernel micro-benchmark (tools/kernel_bench.py) runs, and its one
output line has every key its docstring documents.  The tool reaches into
the kernel's private names, so a change there can break it silently."""

import ast
import json
import re
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "kernel_bench.py"
# the keys of the output line besides the timed passes
EXTRAS = {"code_misses", "corpus_exprs", "corpus_nodes", "repeats", "python"}


def test_one_repetition_prints_every_documented_key():
    doc = ast.get_docstring(ast.parse(TOOL.read_text(encoding="utf-8")))
    timed = set(re.findall(r"^\* ``(\w+_ms)``", doc, re.M))
    assert len(timed) == 7
    assert all(f"``{key}``" in doc for key in EXTRAS)
    proc = subprocess.run([sys.executable, str(TOOL), "--repeats", "1"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    line, = proc.stdout.splitlines()
    out = json.loads(line)
    assert set(out) == timed | EXTRAS
    assert all(out[key] > 0 for key in timed)
    assert set(out["code_misses"]) == {"codegen_compile_ms", "gradient_ms"}
    assert out["repeats"] == 1 and out["corpus_exprs"] > 0

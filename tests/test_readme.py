"""Every ``python`` code block of README.md runs, in order, in one namespace.

A block may use names that an earlier block imported or defined, as a
reader following the README would.  A name removed from the library
then fails here instead of lingering in the docs.  The package's
``__all__`` is its public API: the README imports from ``gausskey`` only
names in it, so the API cannot grow without an edit to ``__all__``.
"""

import ast
import re
from pathlib import Path

import gausskey

README = Path(__file__).resolve().parents[1] / "README.md"
_BLOCK = re.compile(r"^```python\n(.*?)^```", re.DOTALL | re.MULTILINE)


def test_readme_python_blocks_run():
    blocks = _BLOCK.findall(README.read_text(encoding="utf-8"))
    assert len(blocks) >= 4
    namespace: dict = {}
    for number, block in enumerate(blocks, start=1):
        exec(compile(block, f"README.md python block {number}", "exec"), namespace)


def test_all_is_the_public_api_the_readme_uses():
    assert all(hasattr(gausskey, name) for name in gausskey.__all__)
    namespace: dict = {}
    exec("from gausskey import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(gausskey.__all__)
    assert len(set(gausskey.__all__)) == len(gausskey.__all__)
    imported = {
        alias.name
        for block in _BLOCK.findall(README.read_text(encoding="utf-8"))
        for node in ast.walk(ast.parse(block))
        if isinstance(node, ast.ImportFrom) and node.module == "gausskey"
        for alias in node.names
    }
    assert imported and imported <= set(gausskey.__all__)

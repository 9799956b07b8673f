"""Every ``python`` code block of README.md runs, in order, in one namespace.

A block may use names that an earlier block imported or defined, as a
reader following the README would.  A name removed from the library
then fails here instead of lingering in the docs.
"""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
_BLOCK = re.compile(r"^```python\n(.*?)^```", re.DOTALL | re.MULTILINE)


def test_readme_python_blocks_run():
    blocks = _BLOCK.findall(README.read_text(encoding="utf-8"))
    assert len(blocks) >= 4
    namespace: dict = {}
    for number, block in enumerate(blocks, start=1):
        exec(compile(block, f"README.md python block {number}", "exec"), namespace)

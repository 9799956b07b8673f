"""Every ``python`` code block of README.md runs, in order, in one namespace.

A block may use names that an earlier block imported or defined, as a
reader following the README would.  A name removed from the library
then fails here instead of lingering in the docs.  The package's
``__all__`` is its public API: the README imports from ``gausskey`` only
names in it, so the API cannot grow without an edit to ``__all__``.  The CLI section
lists each command's flags, and they are the flags its parser takes.
"""

import argparse
import ast
import re
from pathlib import Path

import gausskey
from gausskey import cli

README = Path(__file__).resolve().parents[1] / "README.md"
_BLOCK = re.compile(r"^```python\n(.*?)^```", re.DOTALL | re.MULTILINE)
# "* `scan`, `boundary`: `--protocol`, ..., `--clamp-nonnegative`." in the CLI section
_FLAG_LIST = re.compile(
    r"^\* (`[a-z]+`(?:, `[a-z]+`)*): ((?:`--[a-z-]+`,?\s+)*`--[a-z-]+`)\.$", re.MULTILINE
)


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


def test_readme_lists_each_commands_flags():
    parser = cli.build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    documented = {}
    for names, flags in _FLAG_LIST.findall(README.read_text(encoding="utf-8")):
        for name in re.findall(r"`([a-z]+)`", names):
            documented[name] = re.findall(r"`(--[a-z-]+)`", flags) + ["--config"]
    parsed = {
        name: [
            option
            for action in subparser._actions
            for option in action.option_strings
            if option not in ("-h", "--help")
        ]
        for name, subparser in commands.choices.items()
    }
    assert {name: sorted(flags) for name, flags in documented.items()} == {
        name: sorted(flags) for name, flags in parsed.items()
    }

"""README.md runs and names only what the library has.

Every ```python block runs against the current library, and every dotted
name in its inline code that starts with `twl` or one of its modules
(`fim.channel_fim`, `twl.protocols.assemble`, ...) resolves.
"""

import functools
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import twl

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, re.M | re.S)


def _library_names():
    """Dotted `twl` names in the inline code spans outside the fenced blocks."""
    prose = re.sub(r"^```.*?^```", "", TEXT, flags=re.M | re.S)
    modules = "|".join(info.name for info in pkgutil.iter_modules(twl.__path__))
    dotted = re.compile(rf"(?<![\w.])((?:twl|{modules})(?:\.\w+)+)")
    spans = re.findall(r"`([^`\n]+)`", prose)
    return sorted({name for span in spans for name in dotted.findall(span)})


def _resolve(name):
    """The object a dotted name names: its longest importable prefix, then getattr."""
    parts = name.split(".")
    if parts[0] != "twl":
        parts.insert(0, "twl")
    for k in range(len(parts), 0, -1):
        try:
            module = importlib.import_module(".".join(parts[:k]))
        except ImportError:
            continue
        return functools.reduce(getattr, parts[k:], module)


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_python_block_runs(block):
    exec(compile(block, str(README), "exec"), {"__name__": "readme"})


def test_readme_library_names_resolve():
    names = _library_names()
    assert len(names) >= 20
    missing = []
    for name in names:
        try:
            _resolve(name)
        except AttributeError:
            missing.append(name)
    assert missing == []

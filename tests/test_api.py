import ast
import importlib
import inspect
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import nkerr


# the names of __all__ that dir() omits and that a star import leaves unbound,
# in a package none of whose names has been looked up yet
_UNLISTED_AND_UNBOUND = """import json, nkerr
listed, namespace = set(dir(nkerr)), {}
exec("from nkerr import *", namespace)
print(json.dumps([sorted(set(nkerr.__all__) - names) for names in (listed, set(namespace))]))
"""


def test_every_exported_name_resolves():
    missing = [name for name in nkerr.__all__ if not hasattr(nkerr, name)]
    assert not missing
    # each name is its defining module's object, not a copy
    for name in nkerr.__all__:
        obj = getattr(nkerr, name)
        if name != "__version__":
            assert obj is getattr(importlib.import_module(obj.__module__), name)
    with pytest.raises(AttributeError, match="'no_such_name'"):
        nkerr.no_such_name
    env = dict(os.environ, PYTHONPATH=str(Path(nkerr.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-W", "error", "-c", _UNLISTED_AND_UNBOUND],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[], []]


def test_every_exported_function_and_class_has_a_docstring():
    # read from the source: the signature that dataclasses and NamedTuples
    # put in a missing __doc__ does not count
    undocumented = []
    for name in nkerr.__all__:
        obj = getattr(nkerr, name)
        if not (inspect.isfunction(obj) or inspect.isclass(obj)):
            continue
        node = ast.parse(textwrap.dedent(inspect.getsource(obj))).body[0]
        if not ast.get_docstring(node):
            undocumented.append(name)
    assert not undocumented


def _literal_text(node):
    """The text of a str literal, or the literal parts of an f-string; else None."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        return "".join(part.value for part in node.values if isinstance(part, ast.Constant))
    return None


def test_pole_messages_are_written_only_in_model():
    # model.POLES is the one table of pole messages: elsewhere no PoleError is
    # built from a literal or an f-string, and no "pole: ..." text is written
    src = Path(nkerr.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        if path.name == "model.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            called = isinstance(node, ast.Call) and "PoleError" in (
                getattr(node.func, "id", None), getattr(node.func, "attr", None))
            if (called and any(_literal_text(arg) is not None for arg in node.args)) or (
                    (_literal_text(node) or "").startswith("pole:")):
                found.append(f"{path.name}:{node.lineno}")
    assert not found

import ast
import inspect
import textwrap

import nkerr


def test_every_exported_name_resolves():
    missing = [name for name in nkerr.__all__ if not hasattr(nkerr, name)]
    assert not missing


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

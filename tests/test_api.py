import ast
import dataclasses
import importlib
import inspect
import json
import os
import pickle
import pkgutil
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import nkerr
from conftest import make_config
from nkerr import model, perturb, suscept


# the names of __all__ that dir() omits and that a star import leaves unbound,
# in a package none of whose names has been looked up yet
_UNLISTED_AND_UNBOUND = """import json, nkerr
listed, namespace = set(dir(nkerr)), {}
exec("from nkerr import *", namespace)
print(json.dumps([sorted(set(nkerr.__all__) - names) for names in (listed, set(namespace))]))
"""


def test_the_exported_names_are_exactly_these():
    # adding or removing a public name is an edit of this list
    assert sorted(nkerr.__all__) == [
        "Coherences", "ConvergenceError", "DegeneracyError", "DressedBasis", "EigenSolution",
        "FieldMode", "KerrCoefficients", "MultiPhotonDetunings", "NKerrError",
        "NotHermitianError", "NotResonantError", "PerturbationSplit", "PoleError",
        "ScenarioError", "SeriesTable", "SusceptibilityPoint", "Sweep", "SystemConfig",
        "TrackingError", "__version__", "build_series", "chis_from_energy", "coefficients",
        "coherences", "dressed_basis", "evaluate_energy", "exact_eigensystem",
        "ground_eigenvalue_function", "ground_series", "multi_photon_detunings", "propagate",
        "pure_cross_kerr", "rabi_frequency", "split", "susceptibility_point", "sweep_at",
        "sweep_grid"]


def test_the_readme_library_section_names_exports_and_its_example_runs(capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library", 1)[1].split("\n## ", 1)[0]
    called = set(re.findall(r"`([A-Za-z_]+)\(", section))
    assert called and called <= set(nkerr.__all__)
    exec(section.split("```python\n", 1)[1].split("```", 1)[0], {})
    assert capsys.readouterr().out.startswith("KerrCoefficients(linear=")


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


def test_out_of_range_is_named_only_in_model():
    # a term outside double range has one rule, model.in_double_range and
    # model.check_finite: no other module names the pole, so none hand-rolls it
    src = Path(nkerr.__file__).parent
    found = [f"{path.name}:{node.lineno}" for path in sorted(src.glob("*.py"))
             if path.name != "model.py"
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if "OUT_OF_RANGE" in (getattr(node, key, None) for key in ("id", "attr", "name"))]
    assert not found


def test_isfinite_is_called_only_in_model():
    # a number a caller passes has one finite-number rule, model._is_finite, and an
    # array one, model._finite_array: no other module calls math.isfinite,
    # cmath.isfinite or np.isfinite, so none hand-rolls it
    src = Path(nkerr.__file__).parent
    found = [f"{path.name}:{node.lineno}" for path in sorted(src.glob("*.py"))
             if path.name != "model.py"
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr == "isfinite"
             and getattr(node.func.value, "id", None) in ("math", "cmath", "np")]
    assert not found


def test_numpy_flags_are_set_only_in_model():
    # numpy's half of the out-of-range rule is model.numpy_range: no other module
    # sets numpy's error flags to raise, and only suscept.sweep_at enters an
    # np.errstate, to ignore what a sweep marks per row instead of raising
    src = Path(nkerr.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        if path.name == "model.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {id(node): func.name for func in ast.walk(tree)  # the innermost, walked last
                 if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
                 for node in ast.walk(func)}
        found += [(path.name, owner.get(id(node)),
                   sorted({getattr(k.value, "value", None) for k in node.keywords}))
                  for node in ast.walk(tree) if isinstance(node, ast.Call)
                  and getattr(node.func, "attr", getattr(node.func, "id", None))
                  in ("errstate", "seterr")]
    assert found == [("suscept.py", "sweep_at", ["ignore"])]


@pytest.mark.parametrize("module, name", [("effective", "_kerr"), ("suscept", "_chis"),
                                          ("suscept", "_chis_from_series")])
def test_the_closed_form_kernels_are_plain_arithmetic(module, name):
    # the body reads only its parameters and its own locals through int
    # constants and binary and unary operators: no call, attribute, subscript
    # or module-level name, so a kernel runs on any number type (exact
    # rationals in test_exact.py) and its guards stay with its callers
    func = ast.parse(textwrap.dedent(inspect.getsource(
        getattr(importlib.import_module(f"nkerr.{module}"), name)))).body[0]
    body = func.body[1:] if ast.get_docstring(func) else func.body
    names = {arg.arg for arg in func.args.args} | {
        node.id for stmt in body for node in ast.walk(stmt)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}
    allowed = (ast.Return, ast.Assign, ast.Tuple, ast.BinOp, ast.UnaryOp, ast.operator,
               ast.unaryop, ast.expr_context)
    found = [f"{type(node).__name__}:{getattr(node, 'id', getattr(node, 'value', ''))}"
             for stmt in body for node in ast.walk(stmt)
             if not (isinstance(node, allowed)
                     or isinstance(node, ast.Name) and node.id in names
                     or isinstance(node, ast.Constant) and type(node.value) is int)]
    assert not found


# each record's fields in order, and the defaults of those that have one
_RECORDS = {
    "model.PerturbationSplit": (("h11", "h22", "h33", "x", "y", "ua", "uc", "eps_a", "eps_c"), {}),
    "perturb.DressedBasis": (("eigenvalues", "right", "left"), {}),
    "perturb.SeriesTable": (("basis", "order", "E", "A"), {}),
    "oracle.EigenSolution": (("eigenvalues", "eigenvectors", "residuals"), {}),
    "effective.KerrCoefficients": (("linear", "self_kerr", "cross_kerr"), {}),
    "suscept.SusceptibilityPoint": (("chi1", "chi3_self", "chi3_cross"), {}),
    "suscept.Coherences": (("rho21", "rho43"), {}),
    "suscept.Sweep": (("axis", "value", "chi1", "chi3_self", "chi3_cross", "pole"), {}),
    "validate.CheckResult": (("number", "name", "passed", "detail"), {"detail": ""}),
}


def _record(path):
    module, name = path.split(".")
    return getattr(importlib.import_module(f"nkerr.{module}"), name)


def test_only_classes_that_need_more_than_a_named_tuple_are_dataclasses():
    # FieldMode and SystemConfig check their fields in __post_init__; every
    # other record is a NamedTuple.  Both are slotted, so, like the NamedTuples,
    # no instance carries a __dict__
    found = set()
    for info in pkgutil.iter_modules(nkerr.__path__):
        module = importlib.import_module(f"nkerr.{info.name}")
        found |= {f"{info.name}.{name}" for name, obj in vars(module).items()
                  if inspect.isclass(obj) and obj.__module__ == module.__name__
                  and dataclasses.is_dataclass(obj)}
    assert found == {"model.FieldMode", "model.SystemConfig"}
    cfg = make_config(0.01, 1.0, 0.01, 1, 0, 1, 0.3, 0.1, 0.5)
    for record in (cfg, cfg.mode_a):
        cls = type(record)
        assert cls.__slots__ == tuple(f.name for f in dataclasses.fields(cls))
        assert not hasattr(record, "__dict__")


@pytest.mark.parametrize("path", sorted(_RECORDS))
def test_records_are_named_tuples_with_their_fields_repr_and_pickle(path):
    cls = _record(path)
    fields, defaults = _RECORDS[path]
    assert issubclass(cls, tuple) and cls._fields == fields
    assert cls._field_defaults == defaults
    values = [f"v{k}" for k in range(len(fields))]
    record = cls(*values)
    assert record == tuple(values)
    assert repr(record) == f"{cls.__name__}(" + ", ".join(
        f"{field}={value!r}" for field, value in zip(fields, values)) + ")"
    copy = pickle.loads(pickle.dumps(record))  # unpickles to its own class, not a tuple
    assert type(copy) is cls and copy == record
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    assert record._replace(**{fields[0]: 0}) == (0, *values[1:])


def test_records_that_hold_arrays_equal_only_themselves_and_do_not_hash():
    # a tuple compares its fields, and two numpy arrays have no single truth value
    cfg = make_config(0.01, 1.0, 0.01, 1, 0, 1, 0.3, 0.1, 0.5)
    sp = model.split(cfg)
    table = perturb.build_series(sp, 1, 2)
    # another configuration's: build_series gives a repeated build its last table back
    again = perturb.build_series(model.split(make_config(0.01, 1.0, 0.01, 1, 0, 1, 0.3, 0.1, 0.6)),
                                 1, 2)
    assert table == table and table in [table]
    with pytest.raises(ValueError, match="truth value of an array"):
        assert table == again
    sweep = suscept.sweep_at(cfg, "dc", suscept.sweep_grid(-1.0, 1.0, 3))
    assert sweep == sweep
    with pytest.raises(ValueError, match="truth value of an array"):
        assert sweep == suscept.sweep_at(cfg, "dc", sweep.value)
    for record in (table, table.basis, sweep):
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)
    assert hash(sp) == hash(tuple(sp))  # a split holds numbers only

"""The public surface: every export resolves and is used by the package itself."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import anyoncircle

PACKAGE_DIR = Path(anyoncircle.__file__).parent

# references that tests compare the package routes against
TEST_ORACLES = ("build_field", "blip_derivative", "charge_operator")


def _definitions(tree):
    """Module-level definition nodes by name: functions, classes, assignments."""
    found = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found[node.name] = node
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    found[target.id] = node
    return found


def _references(node, skip):
    """Names loaded or attributes read under node, outside the subtrees in skip."""
    if node in skip:
        return
    if isinstance(node, ast.Name):
        yield node.id
    elif isinstance(node, ast.Attribute):
        yield node.attr
    for child in ast.iter_child_nodes(node):
        yield from _references(child, skip)


MODULES = [
    ast.parse(path.read_text(), filename=str(path))
    for path in sorted(PACKAGE_DIR.glob("*.py"))
    if path.name != "__init__.py"
]
DEFINITIONS = [_definitions(tree) for tree in MODULES]


def _used_outside_definition(name):
    for tree, defined in zip(MODULES, DEFINITIONS):
        own = defined.get(name)
        if name in _references(tree, {own} if own is not None else set()):
            return True
    return False


def test_every_export_resolves():
    missing = [name for name in anyoncircle.__all__ if not hasattr(anyoncircle, name)]
    assert missing == []
    assert len(set(anyoncircle.__all__)) == len(anyoncircle.__all__)


def test_every_export_is_used_by_the_package():
    unused = [
        name
        for name in anyoncircle.__all__
        if name not in TEST_ORACLES and not _used_outside_definition(name)
    ]
    assert unused == []


def _defaulted_parameters(node, cls=None):
    """(callee name, parameter, call position or None) for every defaulted
    parameter under node.  A class's __init__ is called by the class name,
    and the bound first argument of a method takes no call position."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            yield from _defaulted_parameters(child, child)
            continue
        if not isinstance(child, ast.FunctionDef):
            yield from _defaulted_parameters(child, cls)
            continue
        bound = cls is not None
        name = cls.name if bound and child.name == "__init__" else child.name
        positional = child.args.posonlyargs + child.args.args
        first = len(positional) - len(child.args.defaults)
        for index in range(first, len(positional)):
            yield name, positional[index].arg, index - int(bound)
        for arg, default in zip(child.args.kwonlyargs, child.args.kw_defaults):
            if default is not None:
                yield name, arg.arg, None
        yield from _defaulted_parameters(child)


def _calls(paths):
    """Per callee name: keywords passed, the most positional arguments, and
    whether any call splats."""
    seen = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name is None:
                continue
            keywords, most, splat = seen.get(name, (set(), 0, False))
            keywords |= {kw.arg for kw in node.keywords if kw.arg is not None}
            splat = splat or any(kw.arg is None for kw in node.keywords) or any(
                isinstance(a, ast.Starred) for a in node.args
            )
            seen[name] = (keywords, max(most, len(node.args)), splat)
    return seen


def test_every_default_is_overridden_by_some_call():
    # a parameter that every caller leaves at its default is a constant
    # with a second name; it belongs in the function body
    tests_dir = Path(__file__).parent
    calls = _calls([*PACKAGE_DIR.glob("*.py"), *tests_dir.glob("*.py")])
    never_set = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for name, param, index in _defaulted_parameters(ast.parse(path.read_text())):
            keywords, most, splat = calls.get(name, (set(), 0, False))
            if not (splat or param in keywords or (index is not None and index < most)):
                never_set.append(f"{path.stem}.{name}({param})")
    assert never_set == []


def test_oracle_exceptions_are_exports():
    assert set(TEST_ORACLES) <= set(anyoncircle.__all__)


# a smoke campaign whose implementer claims run the dense Fock route at M = 5
SMOKE_CFG = """\
[exchange]
cutoffs = 4
threshold_scale = 4.0

[schwinger]
samples = 1

[implementer]
cutoff = 5

[recurrence]
cutoff = 4

[rotation]
cutoff = 3
dense_cutoff = 3

[cones]
scan_pairs = 10

[winding]
pairs = 200
"""


def _scipy_modules_after(code):
    """scipy modules loaded after running code in a fresh interpreter."""
    script = code + "\nimport sys\nprint(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(PACKAGE_DIR.parent)},
    )
    return out.stdout.strip().splitlines()[-1]


def test_cli_and_report_load_no_scipy(tmp_path):
    # the package runs on numpy alone; scipy is a test dependency
    assert _scipy_modules_after("import anyoncircle.cli") == "[]"
    cfg = tmp_path / "smoke.cfg"
    cfg.write_text(SMOKE_CFG)
    out = tmp_path / "out"
    report = (
        "from anyoncircle.cli import main\n"
        f"assert main(['report', '--config', {str(cfg)!r}, '--output-dir', {str(out)!r}]) == 0"
    )
    assert _scipy_modules_after(report) == "[]"
    assert "implementer-vacuum,5," in (out / "lemma-implementer.csv").read_text()


def _scipy_imports(tree):
    """Line numbers of every absolute import of scipy or a scipy submodule."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        if any(name.split(".")[0] == "scipy" for name in names):
            yield node.lineno


def test_package_source_never_imports_scipy():
    found = [
        f"{path.name}:{line}"
        for path in sorted(PACKAGE_DIR.rglob("*.py"))
        for line in _scipy_imports(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert found == []
    # the scan sees imports inside functions
    nested = "def f():\n    from scipy.linalg import expm\n    import scipy.sparse as sp\n"
    assert list(_scipy_imports(ast.parse(nested))) == [2, 3]

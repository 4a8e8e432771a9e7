"""Module boundaries: no module of the package, and no test, reads another
cyberlogic module's underscore-prefixed names, and each module imports on
its own."""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "cyberlogic").glob("*.py"))
FILES = MODULES + sorted((ROOT / "tests").glob("*.py"))


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def private_reads(source: str) -> list:
    """Private names of cyberlogic modules that `source` imports or reads."""
    tree = ast.parse(source)
    modules = set()  # local names bound to cyberlogic modules
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and (node.module or "").split(".")[0] != "cyberlogic":
                continue
            if node.module in (None, "cyberlogic"):  # from . import codec
                modules.update(a.asname or a.name for a in node.names)
            else:  # from .codec import name
                found += [f"{node.module}.{a.name}" for a in node.names if _is_private(a.name)]
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "cyberlogic":
                    modules.add(a.asname or "cyberlogic")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _is_private(node.attr):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in modules:
                found.append(ast.unparse(node))
    return found


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_module_reads_another_modules_private_names(path):
    assert private_reads(path.read_text()) == []


def test_the_guard_sees_each_import_form():
    source = (
        "from . import codec\n"
        "from cyberlogic import evidence as E\n"
        "import cyberlogic.node\n"
        "from .syntax import _fresh_rename\n"
        "codec._W()\n"
        "E._children(x)\n"
        "cyberlogic.node._b64(b'')\n"
        "codec.encode_term(t)\n"
        "E.__name__\n"
    )
    assert private_reads(source) == [
        "syntax._fresh_rename", "codec._W", "E._children", "cyberlogic.node._b64"
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_each_module_imports_in_a_fresh_interpreter(path):
    # The package's __init__ imports nothing, so each module must pull in
    # what it uses itself.
    name = "cyberlogic" if path.stem == "__init__" else f"cyberlogic.{path.stem}"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, "-c", f"import {name}"], env=env, check=True, timeout=60)

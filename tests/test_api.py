"""The package's names: each export is used by the package or documented,
each private helper is used by the package, and each public function or
method is used by the package or kept, for a named reader, as API."""

import ast
import re
from pathlib import Path

import smalg

SRC = Path(smalg.__file__).resolve().parent
README = SRC.parents[1] / "README.md"


def _names_read_in_the_package():
    names = set()
    for path in SRC.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_export_is_used_by_the_package_or_named_in_the_readme():
    # helpers that only tests need live in tests/oracles.py, not in __all__
    used = _names_read_in_the_package()
    readme = README.read_text(encoding="utf-8")
    stray = [
        name
        for name in smalg.__all__
        if name not in used and not re.search(rf"\b{name}\b", readme)
    ]
    assert stray == []


def test_every_private_helper_is_read_in_the_package():
    # a helper that only tests use belongs in tests/oracles.py, and one that
    # nothing uses is deleted
    used = _names_read_in_the_package()
    orphans = [
        f"{path.name}:{node.name}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.endswith("__")
        and node.name not in used
    ]
    assert orphans == []


# public functions and methods that nothing in the package reads, each kept
# for the reader outside it named beside it
KEPT_AS_API = {
    # GaussianRational.conjugate: perfbench/trace.py SCALAR_OPS patches it
    # through the class __dict__
    "exactnum.py:conjugate",
    # CanonicalJordanForm.unit_image: perfbench/trace.py METHODS wraps it
    "jordan.py:unit_image",
    # LinearMapOnSMA.unit_images: the class docstring documents it as API,
    # and tests/test_jordan.py reads it
    "jordan.py:unit_images",
}


def test_every_public_function_is_read_in_the_package_or_kept_as_api():
    # a public function or method that nothing reads is deleted, unless the
    # list above gives the reader outside the package that keeps it
    used = _names_read_in_the_package()
    unread = {
        f"{path.name}:{node.name}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in used
    }
    assert unread == KEPT_AS_API


def test_only_the_sampling_module_imports_random():
    importers = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            if any(name == "random" or name.startswith("random.") for name in names):
                importers.append(path.name)
    assert sorted(set(importers)) == ["sampling.py"]

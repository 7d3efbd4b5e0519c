"""The package's names: each export is used by the package or documented,
each private helper is used by the package, and each public function or
method is used by the package or kept, for a named reader, as API."""

import ast
import re
from pathlib import Path

import smalg

SRC = Path(smalg.__file__).resolve().parent
README = SRC.parents[1] / "README.md"


def _reads_in_the_package():
    """(names, attributes): the bare names the package loads, and the
    attribute names it reads (``x.name``)."""
    names, attributes = set(), set()
    for path in SRC.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
    return names, attributes


def _definitions(tree):
    """(node, class name or None) for each function and class the module
    defines: the class name for a method, None for anything else. A method
    is read only through an attribute, never through a bare name such as a
    local variable that shares its name."""
    methods = {
        f: c.name for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body
    }
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node, methods.get(node)


def test_every_export_is_used_by_the_package_or_named_in_the_readme():
    # helpers that only tests need live in tests/oracles.py, not in __all__
    used = set().union(*_reads_in_the_package())
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
    names, attributes = _reads_in_the_package()
    orphans = [
        f"{path.name}:{node.name}"
        for path in sorted(SRC.glob("*.py"))
        for node, cls in _definitions(ast.parse(path.read_text(encoding="utf-8")))
        if node.name.startswith("_")
        and not node.name.endswith("__")
        and node.name not in (attributes if cls else names | attributes)
    ]
    assert orphans == []


def _annotated(node):
    """The class name an annotation names, None for any other annotation."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _methods_read_per_class():
    """(shared, read): the method names that several classes of the package
    define, and the (class, name) pairs among them that the package reads.

    A read counts for a class only where the receiver is seen to be of that
    class: the class itself, ``self`` or ``cls`` in its body, a parameter
    annotated with it, or a call whose return annotation names it. Other
    reads of such a name, as on a product, count for no class."""
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")]
    owners, returns = {}, {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for f in node.body:
                    if isinstance(f, ast.FunctionDef) and not f.name.startswith("__"):
                        owners.setdefault(f.name, set()).add(node.name)
            if isinstance(node, ast.FunctionDef) and _annotated(node.returns):
                returns.setdefault(node.name, set()).add(_annotated(node.returns))
    shared = {name for name, classes in owners.items() if len(classes) > 1}
    classes = set().union(*owners.values())
    read = set()

    def receiver(node, cls, params):
        if isinstance(node, ast.Name):
            if node.id in classes:
                return node.id
            return cls if node.id in ("self", "cls") else params.get(node.id)
        if isinstance(node, ast.Call):
            f = node.func
            kinds = returns.get(f.id if isinstance(f, ast.Name) else getattr(f, "attr", None), ())
            return next(iter(kinds)) if len(kinds) == 1 else None
        return None

    def visit(node, cls, params):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name, params)
                continue
            if isinstance(child, ast.FunctionDef):
                args = child.args.posonlyargs + child.args.args + child.args.kwonlyargs
                visit(child, cls, {**params, **{a.arg: _annotated(a.annotation) for a in args}})
                continue
            if isinstance(child, ast.Attribute) and child.attr in shared:
                read.add((receiver(child.value, cls, params), child.attr))
            visit(child, cls, params)

    for tree in trees:
        visit(tree, None, {})
    return shared, read


# public functions and methods that nothing in the package reads, each kept
# for the reader outside it named beside it
KEPT_AS_API = {
    # perfbench/trace.py SCALAR_OPS patches it through the class __dict__
    "exactnum.py:GaussianRational.conjugate",
    # perfbench/trace.py METHODS wraps it
    "jordan.py:CanonicalJordanForm.unit_image",
    # the class docstring documents it as API, and tests/test_jordan.py
    # reads it
    "jordan.py:LinearMapOnSMA.unit_images",
}


def test_every_public_function_is_read_in_the_package_or_kept_as_api():
    # a public function or method that nothing reads is deleted, unless the
    # list above gives the reader outside the package that keeps it; a
    # method whose name another class defines too needs a reader of its own
    names, attributes = _reads_in_the_package()
    shared, read = _methods_read_per_class()
    unread = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node, cls in _definitions(tree):
            if node.name.startswith("_"):
                continue
            if cls is None:
                is_read = node.name in names | attributes
            elif node.name in shared:
                is_read = (cls, node.name) in read
            else:
                is_read = node.name in attributes
            if not is_read:
                unread.add(f"{path.name}:{cls + '.' if cls else ''}{node.name}")
    assert unread == KEPT_AS_API


def test_only_the_jordan_module_reads_the_nonzeros_of_a_map():
    # a linear map keeps its unit images as nonzero numerators, and the
    # Jordan module alone reads that format; exactnum holds scalars and
    # dense matrices only
    readers = sorted(
        {
            path.name
            for path in SRC.glob("*.py")
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Attribute) and node.attr == "nonzeros"
        }
    )
    assert readers == ["jordan.py"]
    tree = ast.parse((SRC / "exactnum.py").read_text(encoding="utf-8"))
    classes = [node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    assert classes == ["GaussianRational", "DenseMatrix"]


def test_the_integer_lattice_imports_nothing_from_the_package():
    # intlattice is integer arithmetic on rows of ints: it stands alone
    tree = ast.parse((SRC / "intlattice.py").read_text(encoding="utf-8"))
    imported = [
        node.module if isinstance(node, ast.ImportFrom) else alias.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
        if isinstance(node, ast.Import)
        or node.level
        or (node.module or "").split(".")[0] == "smalg"
    ]
    assert imported == []


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

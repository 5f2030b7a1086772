"""Module layering: each module of the package imports only modules below it
in the stack, so the scalars stay the bottom layer and the front end the top;
and the front end reads no private name of another module."""

import ast
from pathlib import Path

import orbifold_index

PACKAGE = Path(orbifold_index.__file__).parent

# bottom to top; the package's __init__ re-exports them all and is left out
ORDER = ["scalars", "identities", "ring", "bundles", "index", "applications", "verify", "cli"]


def package_imports(path):
    """The package modules that the file imports anywhere, imports inside
    functions included."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                base = node.module or ""
            elif node.level == 1:
                base = "orbifold_index" + ("." + node.module if node.module else "")
            else:
                raise AssertionError(f"{path.name}: relative import above the package")
            # `from . import x` and `from orbifold_index import x` name modules
            names = [base] + [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        for name in names:
            parts = name.split(".")
            if parts[0] == "orbifold_index" and len(parts) > 1 and parts[1] in ORDER:
                found.add(parts[1])
    return found


def test_every_module_has_a_layer():
    assert {p.stem for p in PACKAGE.glob("*.py")} == set(ORDER) | {"__init__"}


def test_each_module_imports_only_modules_below_it():
    for level, name in enumerate(ORDER):
        above = package_imports(PACKAGE / f"{name}.py") - set(ORDER[:level])
        assert not above, f"{name} imports {sorted(above)}, which are not below it"


def test_the_check_sees_imports_inside_functions(tmp_path):
    f = tmp_path / "m.py"
    f.write_text("def g():\n    from . import identities\n    from .ring import ring_mul\n"
                 "import orbifold_index.cli\nfrom orbifold_index import bundles as b\n")
    assert package_imports(f) == {"identities", "ring", "cli", "bundles"}


def private_names_read(path):
    """The _-prefixed, non-dunder names that the file imports from a package
    module or reads as an attribute of a package module it imported."""
    tree = ast.parse(path.read_text(), str(path))
    modules, found = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module == "orbifold_index"
                                                 or node.module.startswith("orbifold_index.")):
            for alias in node.names:
                if alias.name.startswith("_"):
                    found.add(alias.name)
                if node.module in (None, "orbifold_index"):  # `from . import x`: x is a module
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            modules.update(alias.asname or alias.name for alias in node.names
                           if alias.name.startswith("orbifold_index"))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and node.attr.startswith("_")
                and not node.attr.startswith("__")):
            found.add(f"{node.value.id}.{node.attr}")
    return found


def test_the_front_end_reads_no_private_name_of_another_module():
    assert not private_names_read(PACKAGE / "cli.py")


def test_the_private_name_check_sees_imports_and_attributes(tmp_path):
    f = tmp_path / "m.py"
    f.write_text("from . import bundles, index as ix\nfrom .scalars import _rows, divisors\n"
                 "ix._cache\nbundles.character.__wrapped__\nself._own\n")
    assert private_names_read(f) == {"_rows", "ix._cache"}

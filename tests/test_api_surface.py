"""The package keeps only API that runs: every public function, class and
method is either used by the program itself or exported by ``fedcalib``."""

import ast
from pathlib import Path

import fedcalib

PACKAGE = Path(fedcalib.__file__).parent


def parsed_modules() -> dict:
    return {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def public_definitions(modules: dict) -> list:
    """(module, qualified name, bare name) of each public top-level function
    or class and each public method of a top-level class."""
    found = []
    for module, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            found.append((module, node.name, node.name))
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        found.append((module, f"{node.name}.{item.name}", item.name))
    return found


def referenced_names(modules: dict) -> tuple:
    """Every name used as a ``Name`` or an import alias, and every name used
    as an ``Attribute``, outside ``__init__.py``."""
    names, attributes = set(), set()
    for module, tree in modules.items():
        if module == "__init__.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return names, attributes


def test_every_public_name_is_used_or_exported():
    # a method is used only through an attribute: a variable of its name is not a call
    modules = parsed_modules()
    names, attributes = referenced_names(modules)
    exported = set(fedcalib.__all__)
    unused = [
        f"{module[:-3]}.{qualified}"
        for module, qualified, bare in public_definitions(modules)
        if bare not in (attributes if "." in qualified else names | attributes) and qualified not in exported
    ]
    assert unused == []


def test_scan_sees_the_package():
    modules = parsed_modules()
    assert {"runner.py", "federation.py", "calibration.py"} <= set(modules)
    defined = {qualified for _, qualified, _ in public_definitions(modules)}
    assert {"run_single", "RngStream.child", "DualEncoderModel.forward"} <= defined


# exports that nothing in the package calls; they stay as public API that the
# tests exercise, and a new one must be added here on purpose
EXPORTS_WITHOUT_A_PROGRAM_CALLER = {"calibration_report", "fit_temperature", "load_config"}


def test_exports_without_a_program_caller_are_listed():
    names, attributes = referenced_names(parsed_modules())
    uncalled = {name for name in fedcalib.__all__ if not name.startswith("__")} - names - attributes
    assert uncalled == EXPORTS_WITHOUT_A_PROGRAM_CALLER

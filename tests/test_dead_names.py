"""Every top-level function and class and every public method of the package
is used by the package, a demo or the benchmark harness, or is named in KEPT
with the reason it stays. Tests do not count as users: code that only tests
call is dead.

A use is any name or attribute with the definition's name, anywhere in those
files, so a method counts as used when any object's attribute of that name
is read. perfbench also reaches functions through "module:attr" strings (its
shim and capture targets), and those count too.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "aacap"
USERS = [ROOT / "src", ROOT / "demos", ROOT / "perfbench"]
# "aacap.model:Decoder.step", or "aacap.metrics:meteor(stem)" for a default argument
TARGET = re.compile(r"aacap\.\w+:([\w.]+)(?:\(\w+\))?")

KEPT = {
    "parse_train_log": "the reader of train.log that the README documents for users",
}


def _definitions():
    """(qualified name, name) of each top-level function and class of the
    package, and of each public method of its classes."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield f"{path.stem}.{node.name}", node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{path.stem}.{node.name}.{item.name}", item.name


def _used_names() -> set[str]:
    names = set()
    for root in USERS:
        for path in root.rglob("*.py"):
            if "tests" in path.relative_to(root).parts:
                continue
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    match = TARGET.fullmatch(node.value)
                    if match:
                        names.update(match.group(1).split("."))
    return names


def test_every_definition_has_a_user_outside_the_tests():
    used = _used_names()
    dead = [qualified for qualified, name in _definitions()
            if name not in used and name not in KEPT]
    assert dead == [], f"defined in src/aacap but used only by tests, or not at all: {dead}"


def test_every_kept_name_is_defined_and_otherwise_unused():
    defined = {name for _, name in _definitions()}
    used = _used_names()
    assert set(KEPT) <= defined
    assert not set(KEPT) & used, "a kept name has a user now; drop it from KEPT"

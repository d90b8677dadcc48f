"""Every top-level function and class and every public method of the package
is used by the package, a demo or the benchmark harness, or is named in KEPT
with the reason it stays; and every parameter with a default is passed by
one of them, or is named in KEPT_DEFAULTS with the reason it stays. A
dataclass field with a default counts as such a parameter of the class's
generated __init__. Tests do not count as users: code that only tests call
is dead, and so is a default that only tests override.

A use is any name or attribute with the definition's name, anywhere in those
files, so a method counts as used when any object's attribute of that name
is read. perfbench also reaches functions through "module:attr" strings (its
shim and capture targets), and those count too.

Calls are matched by name in the same way: a call of any function or method
of a parameter's function's name, or of a functools.partial of it, that
passes the parameter by keyword, by position (self and cls not counted), or
through * from its position or ** passes it; so does a construction through
the class name, or through cls inside the class, for __init__, and a
"module:func(param)" target. So `text.encode(c, vocab)` counts as a call of
CaptionModel.encode, and a parameter can look passed when another function
of its name takes it.
"""

import ast
import re
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "aacap"
USERS = [ROOT / "src", ROOT / "demos", ROOT / "perfbench"]
# "aacap.model:Decoder.step", or "aacap.metrics:meteor(stem)" for a default argument
TARGET = re.compile(r"aacap\.\w+:([\w.]+)(?:\((\w+)\))?")

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


def _user_trees():
    for root in USERS:
        for path in root.rglob("*.py"):
            if "tests" not in path.relative_to(root).parts:
                yield ast.parse(path.read_text(encoding="utf-8"))


def _used_names() -> set[str]:
    names = set()
    for tree in _user_trees():
        for node in ast.walk(tree):
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


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(_called(d.func if isinstance(d, ast.Call) else d) == "dataclass"
               for d in node.decorator_list)


def _field_defaults(node: ast.ClassDef):
    """(name, position) of each __init__ field of a dataclass that has a
    default, position counting the fields before it that __init__ takes."""
    position = 0
    for item in node.body:
        if not (isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)):
            continue
        value, has_default = item.value, item.value is not None
        if isinstance(value, ast.Call) and _called(value.func) == "field":
            keywords = {k.arg: k.value for k in value.keywords}
            init = keywords.get("init")
            if isinstance(init, ast.Constant) and init.value is False:
                continue
            has_default = bool({"default", "default_factory"} & set(keywords))
        if has_default:
            yield item.target.id, position
        position += 1


def _defaulted_parameters():
    """(qualified parameter, call key, name, position) of each parameter with
    a default of a top-level function, of a public method or __init__ of a
    class, or of a dataclass's generated __init__ (its fields), of the
    package. The call key is the function's name, or the class's for
    __init__; position counts the positional parameters after self or cls,
    and is None for a keyword-only one."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                for name, position in _field_defaults(node):
                    yield f"{path.stem}.{node.name}({name})", node.name, name, position
            if isinstance(node, ast.FunctionDef):
                functions = [(node.name, node, node.name, False)]
            elif isinstance(node, ast.ClassDef):
                functions = [(f"{node.name}.{item.name}", item,
                              node.name if item.name == "__init__" else item.name,
                              not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                      for d in item.decorator_list))
                             for item in node.body if isinstance(item, ast.FunctionDef)
                             and (item.name == "__init__" or not item.name.startswith("_"))]
            else:
                continue
            for qualified, function, key, bound in functions:
                args = function.args
                positional = (args.posonlyargs + args.args)[bound:]
                first = len(positional) - len(args.defaults)
                for position, arg in enumerate(positional[first:], first):
                    yield f"{path.stem}.{qualified}({arg.arg})", key, arg.arg, position
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        yield f"{path.stem}.{qualified}({arg.arg})", key, arg.arg, None


@dataclass
class _Passes:
    """What the calls of one name pass: the keywords, the most positional
    arguments, the first position a * call starts at, and whether a ** call
    was made."""

    keywords: set = field(default_factory=set)
    positions: int = 0
    star_from: float = float("inf")
    double_star: bool = False

    def add(self, args, keywords):
        for position, arg in enumerate(args):
            if isinstance(arg, ast.Starred):
                self.star_from = min(self.star_from, position)
                break
            self.positions = max(self.positions, position + 1)
        for keyword in keywords:
            if keyword.arg is None:
                self.double_star = True
            else:
                self.keywords.add(keyword.arg)

    def passes(self, name: str, position) -> bool:
        return (name in self.keywords or self.double_star
                or (position is not None and (position < self.positions
                                              or position >= self.star_from)))


def _called(func) -> str | None:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _passes() -> dict[str, _Passes]:
    """_Passes of every called name in the package, demos and perfbench."""
    passes = defaultdict(_Passes)
    for tree in _user_trees():
        classes = {}  # a cls(...) call constructs the class it is written in
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                classes.update((id(inner), node.name) for inner in ast.walk(node))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name, args = _called(node.func), node.args
                if name == "partial" and args:
                    name, args = _called(args[0]), args[1:]
                if name == "cls":
                    name = classes.get(id(node))
                if name:
                    passes[name].add(args, node.keywords)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                match = TARGET.fullmatch(node.value)
                if match and match.group(2):
                    passes[match.group(1).split(".")[-1]].keywords.add(match.group(2))
    return passes


# Defaults that no caller outside the tests overrides, and why each stays.
KEPT_DEFAULTS: dict[str, str] = {}


def test_every_default_is_passed_by_a_caller_outside_the_tests():
    passes = _passes()
    unpassed = [qualified for qualified, key, name, position in _defaulted_parameters()
                if not passes[key].passes(name, position) and qualified not in KEPT_DEFAULTS]
    assert unpassed == [], f"defaults only tests override, or none: {unpassed}"


def test_every_kept_default_is_a_parameter_no_caller_passes():
    passes = _passes()
    defaulted = {qualified: (key, name, position)
                 for qualified, key, name, position in _defaulted_parameters()}
    assert set(KEPT_DEFAULTS) <= set(defaulted)
    assert not [qualified for qualified in KEPT_DEFAULTS
                if passes[defaulted[qualified][0]].passes(*defaulted[qualified][1:])], \
        "a kept default is passed now; drop it from KEPT_DEFAULTS"

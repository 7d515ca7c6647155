"""Every name the package defines is used by a program, not only by tests.

An AST scan of `src/sentinel/*.py` lists each public module-level function
and class and each public method of a public class, and of every Python file
under `src/`, `demos/` and `perfbench/` each identifier it names: a variable
or attribute, an imported name, or a string that is exactly an identifier
(perfbench's tracer names its targets that way). A module-level definition
counts as used when some other top-level statement names it; its own body
and signature do not count. A method counts as used when any program names
it, its own class included, so one called only by its class's other methods
is used. Methods are matched by name alone: one that shares its name with
an attribute some program reads counts as used. The same rules hold for
private names: each private module-level function and class, and each
private method of any module-level class (dunder methods aside), so a helper
left behind by a refactor is found.

Every annotated field of a dataclass in the package must be read by a
program too: as an attribute, or by a string that is exactly its name. A
field that programs only write, and tests alone read, is found.

README's inline call forms of the scoring entry points are checked against
their signatures too, so the documented parameters cannot drift from the code,
and each `sentinel.<module>.<name>` or `<module>.<name>` it names must resolve.
"""

import ast
import importlib
import inspect
import re
from pathlib import Path

from sentinel import baselines

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "sentinel"
PROGRAM_DIRS = ("src", "demos", "perfbench")
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _is_public(name):
    return not name.startswith("_")


def _is_private(name):  # a dunder method is called by the language, not by name
    return name.startswith("_") and not name.endswith("__")


def _definitions(kept):
    """(module, name) of every module-level function and class whose name is `kept`."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, DEFINITIONS) and kept(node.name):
                yield path.stem, node.name


def _methods(kept, of_class):
    """(class, method) of every method whose name is `kept` of a module-level class
    whose name is `of_class`."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.ClassDef) and of_class(node.name):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and kept(item.name):
                        yield node.name, item.name


def _named(node):
    """Every identifier named anywhere inside `node`."""
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            yield child.id
        elif isinstance(child, ast.Attribute):
            yield child.attr
        elif isinstance(child, ast.alias):
            yield child.name.rsplit(".", 1)[-1]
        elif isinstance(child, ast.Constant) and isinstance(child.value, str):
            if child.value.isidentifier():
                yield child.value


def _programs():
    """(path, parsed module) of every Python file under `src/`, `demos/` and `perfbench/`."""
    for directory in PROGRAM_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            yield path, ast.parse(path.read_text(encoding="utf-8"))


def _uses():
    """{identifier: set of (file, top-level definition or None) naming it}."""
    uses = {}
    for path, module in _programs():
        for top in module.body:
            owner = top.name if isinstance(top, DEFINITIONS) else None
            for name in _named(top):
                uses.setdefault(name, set()).add((path, owner))
    return uses


def _unnamed(definitions, methods, uses):
    """Each definition no other top-level statement of a program names, and each method
    no program names."""
    unused = [f"{module}.{name}" for module, name in definitions
              if not uses.get(name, set()) - {(PACKAGE / f"{module}.py", name)}]
    return unused + [f"{cls}.{name}" for cls, name in methods if name not in uses]


def test_every_public_definition_is_named_by_a_program():
    definitions = list(_definitions(_is_public))
    uses = _uses()
    # The scan reads the package and the demos, so an empty result means
    # what it says.
    assert ("baselines", "score_log") in definitions
    assert any(path.parent.name == "demos" for path, _ in uses["score_log"])
    unused = _unnamed(definitions, [], uses)
    assert unused == [], f"public but named by no program, only by tests: {unused}"


def test_every_public_method_is_named_by_a_program():
    methods = list(_methods(_is_public, of_class=_is_public))
    assert ("OnlineScorer", "push") in methods
    unused = _unnamed([], methods, _uses())
    assert unused == [], f"public methods named by no program, only by tests: {unused}"


def test_every_private_definition_is_named_by_a_program():
    """No private function, class or method is dead code that only tests call. The
    scan reads the package's definitions only, not perfbench's own."""
    definitions = list(_definitions(_is_private))
    methods = list(_methods(_is_private, of_class=lambda name: True))
    assert ("policy", "_gmm_step_constants") in definitions
    assert ("SyntheticGmmPolicy", "_mode_means") in methods
    assert ("OnlineScorer", "__init__") not in methods
    unused = _unnamed(definitions, methods, _uses())
    assert unused == [], f"private but named by no program, only by tests: {unused}"


def _is_dataclass(node):
    """`node` is a class decorated `@dataclass` or `@dataclass(...)`."""
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def _dataclass_fields():
    """(class, field) of every annotated field of a dataclass in the package."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                for item in node.body:
                    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                        yield node.name, item.target.id


def _unread_fields():
    """Each dataclass field that no program reads as an attribute or names in a string
    that is exactly the field's name (`getattr`, a JSON key, a tracer target)."""
    read = set()
    for _, module in _programs():
        for node in ast.walk(module):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
    return [f"{cls}.{name}" for cls, name in _dataclass_fields() if name not in read]


def test_every_dataclass_field_is_read_by_a_program():
    """A field that programs only write is data no one uses, checked by tests alone."""
    fields = list(_dataclass_fields())
    assert ("MonitorPrompt", "frames") in fields and ("RolloutLog", "records") in fields
    unread = _unread_fields()
    assert unread == [], f"dataclass fields no program reads, only writes: {unread}"


SCORING_ENTRY_POINTS = ("OnlineScorer", "score_logs", "score_log")


def _readme_call_forms():
    """(entry point, parameter names) of each call of a scoring entry point in an
    inline code span of README, outside fenced code blocks; `ctx=None` names `ctx`."""
    text = re.sub(r"^```.*?^```", "", (ROOT / "README.md").read_text(encoding="utf-8"),
                  flags=re.S | re.M)
    call = re.compile(rf"\b({'|'.join(SCORING_ENTRY_POINTS)})\(([^()]*)\)")
    for span in re.findall(r"`([^`]+)`", text):
        for name, args in call.findall(span):
            yield name, [arg.split("=")[0].strip() for arg in args.split(",") if arg.strip()]


def test_readme_call_forms_name_the_entry_points_parameters():
    forms = list(_readme_call_forms())
    assert {name for name, _ in forms} == set(SCORING_ENTRY_POINTS)
    for name, params in forms:
        signature = list(inspect.signature(getattr(baselines, name)).parameters)
        assert params == signature[:len(params)], (name, params, signature)


def _readme_references():
    """(module, dotted name) of each inline code span of README, outside fenced
    code blocks, that is `sentinel.<module>.<name>` or `<module>.<name>` for a
    module of the package."""
    text = re.sub(r"^```.*?^```", "", (ROOT / "README.md").read_text(encoding="utf-8"),
                  flags=re.S | re.M)
    modules = "|".join(path.stem for path in sorted(PACKAGE.glob("*.py")))
    return re.findall(rf"`(?:sentinel\.)?({modules})\.([A-Za-z_][\w.]*)`", text)


def test_readme_api_references_resolve():
    references = _readme_references()
    assert ("rollout", "check_next") in references
    missing = []
    for module, dotted in references:
        target = importlib.import_module(f"sentinel.{module}")
        for part in dotted.split("."):
            target = getattr(target, part, None)
        if target is None:
            missing.append(f"{module}.{dotted}")
    assert missing == [], f"README names what the package does not define: {missing}"

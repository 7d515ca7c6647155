"""Every public name of the package is used by a program, not only by tests.

An AST scan of `src/sentinel/*.py` lists each public module-level function
and class and each public method of a public class, and of every Python file
under `src/`, `demos/` and `perfbench/` each identifier it names: a variable
or attribute, an imported name, or a string that is exactly an identifier
(perfbench's tracer names its targets that way). A module-level definition
counts as used when some other top-level statement names it; its own body
and signature do not count. A method counts as used when any program names
it, its own class included, so one called only by its class's other methods
is used. Methods are matched by name alone: one that shares its name with
an attribute some program reads counts as used.

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


def _public_definitions():
    """(module, name) of every public module-level function and class."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, DEFINITIONS) and not node.name.startswith("_"):
                yield path.stem, node.name


def _public_methods():
    """(class, method) of every public method of a public module-level class."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for item in node.body:
                    if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and not item.name.startswith("_")):
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


def _uses():
    """{identifier: set of (file, top-level definition or None) naming it}."""
    uses = {}
    for directory in PROGRAM_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            for top in ast.parse(path.read_text(encoding="utf-8")).body:
                owner = top.name if isinstance(top, DEFINITIONS) else None
                for name in _named(top):
                    uses.setdefault(name, set()).add((path, owner))
    return uses


def test_every_public_definition_is_named_by_a_program():
    definitions = list(_public_definitions())
    uses = _uses()
    # The scan reads the package and the demos, so an empty result means
    # what it says.
    assert ("baselines", "score_log") in definitions
    assert any(path.parent.name == "demos" for path, _ in uses["score_log"])
    unused = []
    for module, name in definitions:
        own = PACKAGE / f"{module}.py"
        if not {use for use in uses.get(name, ()) if use != (own, name)}:
            unused.append(f"{module}.{name}")
    assert unused == [], f"public but named by no program, only by tests: {unused}"


def test_every_public_method_is_named_by_a_program():
    methods = list(_public_methods())
    uses = _uses()
    assert ("OnlineScorer", "push") in methods
    unused = [f"{cls}.{name}" for cls, name in methods if name not in uses]
    assert unused == [], f"public methods named by no program, only by tests: {unused}"


SCORING_ENTRY_POINTS = ("OnlineScorer", "score_logs", "score_detectors", "score_log")


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

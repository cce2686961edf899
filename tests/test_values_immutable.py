"""Rules, pattern tuples and rows are values: nothing reassigns their fields.

Compiled rule programs (:mod:`repro.core.program`), cached hashes and the
chase memo all assume an :class:`EditingRule`, a :class:`PatternTuple` or a
:class:`Row` never changes after construction.  A ``__setattr__`` guard
would enforce that at run time, but it makes every construction several
times slower, so this check is static instead: it parses every module
under ``src``, ``tests``, ``benchmarks``, ``perfbench`` and ``examples``
and finds no assignment, deletion, ``setattr`` or ``object.__setattr__``
of one of those fields outside the owning class body.  Inside any class,
``self.<field> = ...`` assigns that class's own attribute and is allowed.
The lazily cached ``_hash`` is exempt.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Fields fixed at construction, by owning class.
FROZEN = {
    "EditingRule": {
        "name", "lhs", "lhs_m", "rhs", "rhs_m", "pattern", "master_guard",
        "_premise",
    },
    "PatternTuple": {"_attrs", "_conditions"},
    "Row": {"schema", "values"},
}
FIELDS = set().union(*FROZEN.values())


def _targets(node) -> list:
    """The attribute targets a statement assigns or deletes."""
    if isinstance(node, ast.Assign):
        roots = list(node.targets)
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        roots = [node.target]
    elif isinstance(node, ast.Delete):
        roots = list(node.targets)
    else:
        return []
    out = []
    while roots:
        root = roots.pop()
        if isinstance(root, (ast.Tuple, ast.List)):
            roots.extend(root.elts)
        elif isinstance(root, ast.Starred):
            roots.append(root.value)
        elif isinstance(root, ast.Attribute):
            out.append((root.value, root.attr))
    return out


def _setattr_call(node):
    """``(object expr, field)`` of a ``setattr``/``delattr``/
    ``object.__setattr__`` call with a constant field name, else None."""
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    named = isinstance(func, ast.Name) and func.id in ("setattr", "delattr")
    dunder = isinstance(func, ast.Attribute) and func.attr in (
        "__setattr__", "__delattr__",
    )
    if not (named or dunder) or len(node.args) < 2:
        return None
    field = node.args[1]
    if isinstance(field, ast.Constant) and isinstance(field.value, str):
        return node.args[0], field.value
    return None


class _Finder(ast.NodeVisitor):
    def __init__(self, path: str):
        self.path = path
        self.classes: list = []
        self.found: list = []

    def visit_ClassDef(self, node):
        self.classes.append(node.name)
        self.generic_visit(node)
        self.classes.pop()

    def _check(self, node, target, field) -> None:
        if field not in FIELDS:
            return
        owner = self.classes[-1] if self.classes else None
        if owner is not None and (
            field in FROZEN.get(owner, ())
            or (isinstance(target, ast.Name) and target.id == "self")
        ):
            return
        self.found.append(
            f"{self.path}:{node.lineno}: "
            f"{ast.unparse(node).splitlines()[0]}"
        )

    def generic_visit(self, node):
        for target, field in _targets(node):
            self._check(node, target, field)
        call = _setattr_call(node)
        if call is not None:
            self._check(node, *call)
        super().generic_visit(node)


def find_field_assignments(base: Path, roots) -> list:
    """``path:line: statement`` of every offending statement under
    *roots*, paths relative to *base*."""
    found = []
    for root in roots:
        for path in sorted((base / root).rglob("*.py")):
            finder = _Finder(str(path.relative_to(base)))
            finder.visit(ast.parse(path.read_text(encoding="utf-8")))
            found.extend(finder.found)
    return found


def test_no_code_reassigns_rule_pattern_or_row_fields():
    assert find_field_assignments(
        ROOT, ["src", "tests", "benchmarks", "perfbench", "examples"]
    ) == []


def test_the_check_sees_each_kind_of_assignment(tmp_path):
    planted = tmp_path / "planted.py"
    planted.write_text(
        "rule.lhs = ('x',)\n"
        "row.values += (1,)\n"
        "del pattern._conditions\n"
        "setattr(rule, 'rhs', 'b')\n"
        "object.__setattr__(row, 'schema', None)\n"
        "class Other:\n"
        "    def f(self, rule):\n"
        "        self.name = 'ok'\n"
        "        rule.name = 'not ok'\n"
        "class Row:\n"
        "    def __init__(self):\n"
        "        self.values = ()\n"
        "rule._hash = None\n",
        encoding="utf-8",
    )
    found = find_field_assignments(tmp_path, ["."])
    assert [line.split(":")[1] for line in found] == [
        "1", "2", "3", "4", "5", "9",
    ]

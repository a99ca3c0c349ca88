"""The source lints: no unused import, and no unused definition.

Every ``.py`` file under src/, tests/, tools/ and perfbench/ but the
``__init__.py`` re-exports is read, parsed and tokenized once.

- Unused imports, over src/qsylv, tests and tools: a name bound by an
  ``import`` (``from __future__`` aside) that no name of its module
  reads and that ``__all__`` does not list, or that an earlier import
  of its module binds already.  ``import pkg.sub`` beside ``import
  pkg`` binds nothing again: it loads the submodule.
- Unused definitions: a top-level function, class or module-level
  assigned name of src/qsylv, tests or tools, or a method of a
  top-level class of src/qsylv other than a dunder, is unused when its
  name occurs once in the code of all four trees: as a name, or as a
  word of a string literal that is no docstring.  The names pytest
  collects or calls (``test_*``, ``Test*``, ``pytest_*``) are not
  checked.  Comments and docstrings are prose, and a word in them is
  no reference.  Nor is a word of this module, so the names in its
  examples below reference nothing.

A failure lists every offender as ``path:line: name``.
"""

import ast
import io
import re
import tokenize
from collections import Counter
from pathlib import Path
from textwrap import dedent

import pytest

ROOT = Path(__file__).resolve().parent.parent
TREES = ("src", "tests", "tools", "perfbench")
IMPORT_TREES = ("src/qsylv", "tests", "tools")
HELPER_TREES = ("tests", "tools")
PYTEST_NAMES = ("test_", "Test", "pytest_")
LINT = Path("tests/test_lint.py")


def unused_imports(tree):
    """(line, name) of each name imported by ``tree`` and never read,
    then of each import that binds a name again; a dotted ``import
    pkg.sub`` is keyed by its whole path, so only the same path again
    counts."""
    bound, used = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Import):
            bound += [(node.lineno, a.asname or a.name.split(".")[0],
                       a.asname or a.name) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, a.asname or a.name, a.asname or a.name)
                      for a in node.names]
        elif (isinstance(node, ast.Assign)
              and any(getattr(t, "id", None) == "__all__"
                      for t in node.targets)):
            used |= {e.value for e in node.value.elts}
    first, keys, again = {}, set(), []
    for line, name, key in sorted(bound):
        first.setdefault(name, line)
        if key in keys:
            again.append((line, name))
        keys.add(key)
    return [(line, name) for name, line in first.items()
            if name not in used] + again


def definitions(tree, methods=True):
    """(line, name) of each top-level function, class and assigned name
    of ``tree``, and, with ``methods``, of each method of a top-level
    class but the dunders."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.lineno, node.name
        if methods and isinstance(node, ast.ClassDef):
            yield from ((m.lineno, m.name) for m in node.body
                        if isinstance(m, ast.FunctionDef)
                        and not (m.name.startswith("__")
                                 and m.name.endswith("__")))
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            yield from ((node.lineno, t.id) for target in targets
                        for t in getattr(target, "elts", [target])
                        if isinstance(t, ast.Name)
                        and not t.id.startswith("__"))


def code_words(text, tree):
    """The names of the code of ``text`` (parsed as ``tree``), counted:
    its name tokens and the words of its string literals that are no
    docstrings."""
    docs = {(n.body[0].lineno, n.body[0].col_offset) for n in ast.walk(tree)
            if isinstance(n, (ast.Module, ast.ClassDef, ast.FunctionDef,
                              ast.AsyncFunctionDef))
            and n.body and isinstance(n.body[0], ast.Expr)
            and isinstance(n.body[0].value, ast.Constant)
            and isinstance(n.body[0].value.value, str)}
    words = Counter()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.NAME:
            words[tok.string] += 1
        elif (tok.type == tokenize.STRING and tok.start not in docs
              or tok.type == getattr(tokenize, "FSTRING_MIDDLE", None)):
            words.update(re.findall(r"\w+", tok.string))
    return words


def lint(files):
    """The offenders of both rules over ``files``, a map from each path
    (relative to the repository root) to its text: a list of
    ``path:line: name`` per rule, unused imports first."""
    files = {p: text for p, text in files.items() if p.name != "__init__.py"}
    trees = {p: ast.parse(text, str(p)) for p, text in files.items()}
    words = Counter()
    for p, text in files.items():
        if p != LINT:
            words.update(code_words(text, trees[p]))
    imports = [f"{p}:{line}: {name}" for p, tree in trees.items()
               if any(p.is_relative_to(d) for d in IMPORT_TREES)
               for line, name in unused_imports(tree)]
    defs = [f"{p}:{line}: {name}" for p, tree in trees.items()
            for line, name in checked_definitions(p, tree)
            if words[name] == 1]
    return imports, defs


def checked_definitions(path, tree):
    """The :func:`definitions` of ``tree`` that the rule checks: all of
    src/qsylv, and the top-level ones of tests and tools that pytest
    neither collects nor calls."""
    if path.is_relative_to("src/qsylv"):
        return list(definitions(tree))
    if any(path.is_relative_to(d) for d in HELPER_TREES):
        return [(line, name) for line, name in definitions(tree, False)
                if not name.startswith(PYTEST_NAMES)]
    return []


@pytest.fixture(scope="module")
def offenders():
    return lint({p.relative_to(ROOT): p.read_text() for d in TREES
                 for p in sorted((ROOT / d).rglob("*.py"))})


def test_no_unused_imports(offenders):
    if offenders[0]:
        pytest.fail("imported but unused:\n" + "\n".join(offenders[0]),
                    pytrace=False)


def test_no_unused_definitions(offenders):
    if offenders[1]:
        pytest.fail("defined but never referenced:\n"
                    + "\n".join(offenders[1]), pytrace=False)


@pytest.mark.parametrize("files, imports, defs", (
    ({"src/qsylv/m.py": "import os.path\n"}, ["src/qsylv/m.py:1: os"], []),
    ({"tests/test_m.py": "from math import pi as PI\n"},
     ["tests/test_m.py:1: PI"], []),
    # __future__, __all__, __init__.py and perfbench are not checked
    ({"tools/t.py": """\
        from __future__ import annotations
        from math import tau
        __all__ = ["tau"]
        """,
      "src/qsylv/__init__.py": "from math import e\n",
      "perfbench/p.py": "import os\n"}, [], []),
    ({"src/qsylv/m.py": '''\
        def helper():
            """helper: named only in prose."""  # helper
        '''}, [], ["src/qsylv/m.py:1: helper"]),
    ({"src/qsylv/m.py": "LIMIT, (SIZE, COUNT) = 3, (4, 5)  # LIMIT\n",
      "tools/t.py": "print(COUNT)\n"}, [], ["src/qsylv/m.py:1: LIMIT"]),
    ({"src/qsylv/box.py": """\
        class Box:
            def __repr__(self):
                return ""
            def open(self):
                pass
        """,
      "src/qsylv/use.py": '''\
        """Box.open opens a box."""
        from .box import Box
        Box()
        '''}, [], ["src/qsylv/box.py:4: open"]),
    # a name in a string literal that is no docstring is a reference
    ({"src/qsylv/m.py": "def helper():\n    pass\n",
      "tests/test_m.py": 'TABLE = {"helper": 1}\nprint(TABLE)\n'}, [], []),
    # a name read only in an __init__.py or in this module is none
    ({"src/qsylv/m.py": "def helper():\n    pass\n",
      "src/qsylv/__init__.py": "from .m import helper\n",
      "tests/test_lint.py": "helper()\n"}, [], ["src/qsylv/m.py:1: helper"]),
    # a name bound twice is flagged at its second import, even if read
    ({"tools/t.py": "import os\nfrom os import path\nimport os\n"
                    "print(os, path)\n"}, ["tools/t.py:3: os"], []),
    # but import pkg.sub beside import pkg loads the submodule
    ({"tests/test_m.py": "import qsylv\nimport qsylv.cli\nprint(qsylv)\n"},
     [], []),
    # a test or tool helper that no code reads is flagged; the names
    # pytest collects or calls and the methods of a class are not
    ({"tests/test_m.py": "N = 1\ndef helper(): pass\ndef pytest_x(): pass\n"
                         "class TestM:\n    def check(self): pass\n"
                         "def test_m(): pass\n",
      "tools/t.py": "def main(): pass\n"},
     [], ["tests/test_m.py:1: N", "tests/test_m.py:2: helper",
          "tools/t.py:1: main"]),
))
def test_rules_on_small_trees(files, imports, defs):
    assert lint({Path(p): dedent(text)
                 for p, text in files.items()}) == (imports, defs)

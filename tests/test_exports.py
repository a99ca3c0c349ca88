import sys

import pytest

import qsylv
import qsylv.cli
from qsylv.solvers.families import check, solve


@pytest.mark.parametrize("module", [qsylv],
                         ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing


def test_star_import():
    namespace = {}
    exec("from qsylv import *", namespace)
    assert set(qsylv.__all__) <= set(namespace)


def test_one_binding_per_spelling():
    # the per-system spellings are bound in the package root alone: the
    # aliases are the driver itself, the wrappers are defined there; the
    # import of qsylv.cli loads every other module of the package
    spellings = [name for name in qsylv.__all__
                 if name.startswith(("check_", "solve_"))]
    assert len(spellings) == 22
    aliases = [name for name in spellings
               if getattr(qsylv, name) in (check, solve)]
    assert len(aliases) == 15
    assert all(getattr(qsylv, name).__module__ == "qsylv"
               for name in spellings if name not in aliases)
    elsewhere = [(modname, name)
                 for modname, mod in list(sys.modules.items())
                 if modname.startswith("qsylv.") and mod is not None
                 for name in spellings if hasattr(mod, name)]
    assert not elsewhere

import pytest

import qsylv
import qsylv.solvers


@pytest.mark.parametrize("module", [qsylv, qsylv.solvers],
                         ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing


def test_star_import():
    namespace = {}
    exec("from qsylv import *", namespace)
    assert set(qsylv.__all__) <= set(namespace)

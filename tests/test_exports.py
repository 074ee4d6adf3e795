import ast
from pathlib import Path

import pytest

import qftkit
from qftkit import phasest, qft_pow2


@pytest.mark.parametrize("module", [phasest, qft_pow2], ids=lambda m: m.__name__)
def test_every_name_in_all_resolves(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def test_every_package_export_resolves():
    tree = ast.parse(Path(qftkit.__file__).read_text())
    names = [a.asname or a.name for node in tree.body if isinstance(node, ast.ImportFrom) for a in node.names]
    assert names
    assert [name for name in names if not hasattr(qftkit, name)] == []

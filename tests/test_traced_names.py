"""Every name the benchmark traces still exists in the package.

perfbench/tracing.py wraps the functions its TARGETS table names, and
its smoke test requires that none is skipped. This reads the table
without importing perfbench as a package, so a deletion that would
break that slow run fails here in milliseconds.
"""

import functools
import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.PACKAGE, tracing.TARGETS


PACKAGE, TARGETS = _targets()


def test_targets_found():
    assert len(TARGETS) >= 20


@pytest.mark.parametrize("module, path", [t[1:3] for t in TARGETS], ids=[t[0] for t in TARGETS])
def test_traced_name_resolves(module, path):
    layer = importlib.import_module(f"{PACKAGE}.{module}")
    assert callable(functools.reduce(getattr, path.split("."), layer))

"""The names perfbench's tracer wraps must exist in the package.

``perfbench/tracing.py`` resolves its targets only in a traced benchmark
run; this test resolves them in the ordinary suite, so a change that renames
or deletes a traced function fails here first.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # imports only numpy
    return module


tracing = _tracing()


@pytest.mark.parametrize("mod_name, attr", [(m, a) for m, a, _, _ in tracing.TARGETS])
def test_traced_target_resolves(mod_name, attr):
    owner = importlib.import_module(mod_name)
    if "." in attr:
        cls_name, meth = attr.split(".")
        assert meth in vars(getattr(owner, cls_name))  # wrapped in the class dict itself
    else:
        assert callable(getattr(owner, attr))


def test_tracer_hooks_resolve():
    from gammaw import _tape, acceptance

    assert callable(_tape.compile_tape)
    assert callable(_tape.backend_name)
    for cid in tracing.CRITERIA:
        assert callable(acceptance.CRITERIA[cid][1])

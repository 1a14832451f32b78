"""The names perfbench's tracer wraps must exist in the package.

``perfbench/tracing.py`` resolves its targets only in a traced benchmark
run; this test resolves them in the ordinary suite, so a change that renames
or deletes a traced function fails here first.
"""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"


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


# instrument() rebinds module globals for good, so the traced run gets a
# process of its own; its last line is the exit code and the names of the
# spans it recorded
TRACED_VERIFY = """
import importlib.util, sys
spec = importlib.util.spec_from_file_location("perfbench_tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
tracer = tracing.Tracer()
tracer.instrument()
from gammaw import cli
code = cli.main(["verify", "commutation", *sys.argv[2:]])
print(code, *sorted({tracer.names[i] for i in tracer.name}))
"""


def test_traced_verify_records_tape_spans(tmp_path):
    # mc_generic's U is not the recognised Gaussian one, so its drift comes
    # from the gradient tape
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    config = ROOT / "perfbench" / "configs" / "mc_generic.ini"
    res = subprocess.run(
        [sys.executable, "-c", TRACED_VERIFY, str(TRACING), "--config", str(config),
         "--override", "mc.n_paths=1000", "--out", str(tmp_path / "report.csv")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert res.returncode == 0, res.stderr
    code, *spans = res.stdout.splitlines()[-1].split()
    assert code == "0"
    assert {"tape.grads", "tape.compile"} <= set(spans)

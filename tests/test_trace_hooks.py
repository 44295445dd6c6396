"""The benchmark's trace hooks name attributes that exist.

`twlbench/tracing.py` wraps each hooked attribute in the namespace of the
module that calls it, and reports a hook it cannot find only as a line on
stderr. A dropped import or a renamed function would thus zero a per-layer
metric without an error; this test turns that into a failure.
"""

import importlib
import importlib.util
from pathlib import Path

#: Hooks known to miss: `orthonormal_basis` was removed from `twl.scenario`;
#: ROADMAP item 1 points its hook at `gram_inv_sqrt`.
KNOWN_MISSING = {("twl.scenario", "orthonormal_basis")}


def _tracing():
    path = Path(__file__).resolve().parents[1] / "twlbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("twlbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_hook_resolves():
    hooks = {(module, attribute) for module, attribute, *_ in _tracing().HOOKS}
    missing = {
        (module, attribute) for module, attribute in hooks
        if not hasattr(importlib.import_module(module), attribute)
    }
    assert missing <= KNOWN_MISSING, sorted(missing - KNOWN_MISSING)
    assert hooks - KNOWN_MISSING

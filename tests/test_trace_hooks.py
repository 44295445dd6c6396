"""The benchmark's trace hooks name attributes that exist.

`twlbench/tracing.py` wraps each hooked attribute in the namespace of the
module that calls it, and reports a hook it cannot find only as a line on
stderr. A dropped import or a renamed function would thus zero a per-layer
metric without an error; this test turns that into a failure. A hooked
name that resolves but that the pipeline no longer calls zeroes its metric
as silently, so each subcommand must call every stage hook.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from twl.cli import EXIT_OK, main

#: Hooks known to miss: `orthonormal_basis` was removed from `twl.scenario`;
#: ROADMAP item 8a points its hook at `gram_inv_sqrt`.
KNOWN_MISSING = {("twl.scenario", "orthonormal_basis")}
#: The hooks of the pipeline's stages, which every subcommand runs.
STAGE_HOOKS = {
    ("twl.scenario", "steering_forms"),
    ("twl.scenario", "fim_from_forms"),
    ("twl.scenario", "invert_efim"),
    ("twl.scenario", "_link_angles_batch"),
    ("twl.scenario", "_jacobian_batch"),
    ("twl.beamforming", "steering"),
}


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


@pytest.mark.parametrize("subcommand", ["point", "cdf", "sweep-bw", "sweep-ant"])
def test_every_subcommand_calls_each_stage_hook(monkeypatch, tmp_path, subcommand):
    hooks = {(module, attribute) for module, attribute, *_ in _tracing().HOOKS} - KNOWN_MISSING
    assert STAGE_HOOKS <= hooks
    calls = dict.fromkeys(hooks, 0)

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module, attribute in hooks:
        namespace = importlib.import_module(module)
        fn = getattr(namespace, attribute)
        monkeypatch.setattr(namespace, attribute, counted((module, attribute), fn))
    config = tmp_path / "run.cfg"
    config.write_text("n_positions = 500\n")
    out = tmp_path / "table.csv"
    assert main([subcommand, "--config", str(config), "--out", str(out)]) == EXIT_OK
    uncalled = [hook for hook in sorted(STAGE_HOOKS) if not calls[hook]]
    assert not uncalled, uncalled

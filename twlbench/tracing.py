"""Per-layer spans and counts, recorded from outside `twl`.

Each hook replaces one function in the namespace of the module that calls
it: `twl.scenario` imports its callees by name, so wrapping
`twl.kernels.steering_forms` itself would see no calls. Hooks are installed
for one traced operation and removed after it, so untraced operations run
the program untouched.

A span is (name, start, end, parent, op). Spans stay in memory and are
written out when the run ends. A layer's self time is its spans' durations
minus the time their direct child spans cover.
"""

import functools
import importlib
import statistics
import sys
import time


def _directions(args, kwargs, result):
    theta = args[5] if len(args) > 5 else kwargs["theta"]
    return "kernels.directions", len(theta)


def _efims(args, kwargs, result):
    efim = args[0] if args else kwargs["efim"]
    n = 1
    for size in efim.shape[:-2]:
        n *= size
    return "protocols.efims_inverted", n


def _tables_bytes(args, kwargs, result):
    arrays = [result.positions, result.snr_db, result.jacobian,
              *result.angle_efim.values(), *result.delay_info.values()]
    return "scenario.tables_bytes", sum(a.nbytes for a in arrays)


def _one_call(args, kwargs, result):
    return "geometry.steering_calls", 1


#: (module, attribute, span name or None for a count only, count function)
HOOKS = (
    ("twl.cli", "parse_config", "cli.parse_config", None),
    ("twl.cli", "run", "cli.run", None),
    ("twl.cli", "run_cdf", "scenario.entry", None),
    ("twl.cli", "sweep_bandwidth", "scenario.entry", None),
    ("twl.cli", "sweep_antennas", "scenario.entry", None),
    ("twl.cli", "position_tables", "scenario.position_tables", _tables_bytes),
    ("twl.cli", "protocol_bounds", "scenario.protocol_bounds", None),
    ("twl.scenario", "position_tables", "scenario.position_tables", _tables_bytes),
    ("twl.scenario", "protocol_bounds", "scenario.protocol_bounds", None),
    ("twl.scenario", "sample_positions", "scenario.sample_positions", None),
    ("twl.scenario", "percentile", "scenario.percentile", None),
    ("twl.scenario", "_link_angles_batch", "pose.link_geometry", None),
    ("twl.scenario", "_jacobian_batch", "pose.link_geometry", None),
    ("twl.scenario", "steering_forms", "kernels.steering_forms", _directions),
    ("twl.scenario", "fim_from_forms", "fim.fim_from_forms", None),
    ("twl.scenario", "invert_efim", "protocols.invert_efim", _efims),
    ("twl.scenario", "directional_beams", "beamforming.codebook", None),
    ("twl.scenario", "orthonormal_basis", "beamforming.codebook", None),
    ("twl.scenario", "region_spot_grid", "beamforming.codebook", None),
    ("twl.scenario", "sector_beam_grid", "beamforming.codebook", None),
    ("twl.beamforming", "steering", None, _one_call),
)

#: Name of the root span the benchmark opens around each `twl.cli.main` call.
ROOT = "cli.main"

#: Per-layer metric -> span name whose per-operation self time it reports.
SELF_TIMES = {
    "kernels.steering_forms_s": "kernels.steering_forms",
    "protocols.invert_efim_s": "protocols.invert_efim",
    "scenario.protocol_bounds_self_s": "scenario.protocol_bounds",
    "scenario.sample_positions_s": "scenario.sample_positions",
    "scenario.position_tables_self_s": "scenario.position_tables",
    "scenario.percentile_s": "scenario.percentile",
    "scenario.entry_self_s": "scenario.entry",
    "pose.link_geometry_s": "pose.link_geometry",
    "fim.fim_from_forms_s": "fim.fim_from_forms",
    "beamforming.codebook_s": "beamforming.codebook",
    "cli.parse_config_s": "cli.parse_config",
    "cli.run_self_s": "cli.run",
    "cli.main_self_s": ROOT,
}

#: Counters that keep the largest value seen in an operation, not the sum.
_MAX_COUNTERS = {"scenario.tables_bytes"}


class Tracer:
    """Installs the hooks around one operation at a time and keeps its spans."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None, op index]
        self.counts = []  # one dict per traced operation
        self.missing = []
        self._stack = []
        self._op_first = 0

    def _record(self, key, value):
        counts = self.counts[-1]
        if key in _MAX_COUNTERS:
            counts[key] = max(counts.get(key, 0), value)
        else:
            counts[key] = counts.get(key, 0) + value

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        span = [name, time.perf_counter(), None, parent, len(self.counts) - 1]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span):
        span[2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name, count):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name is None:
                result = fn(*args, **kwargs)
            else:
                span = self._open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._close(span)
            if count is not None:
                self._record(*count(args, kwargs, result))
            return result
        return wrapper

    def install(self):
        """Replace every hooked function; returns the originals for uninstall."""
        self.counts.append({})
        self._op_first = len(self.spans)
        originals = []
        for module_name, attr, name, count in HOOKS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                if (module_name, attr) not in self.missing:
                    self.missing.append((module_name, attr))
                    print(f"twlbench: trace hook {module_name}.{attr} not found",
                          file=sys.stderr)
                continue
            originals.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, count))
        return originals

    @staticmethod
    def uninstall(originals):
        for module, attr, fn in originals:
            setattr(module, attr, fn)

    def call(self, fn, *args):
        """Run fn(*args) inside the root span."""
        span = self._open(ROOT)
        try:
            return fn(*args)
        finally:
            self._close(span)

    def op_layers(self) -> dict:
        """Self time per span name and the counts of the latest traced operation."""
        first = self._op_first
        child = {}
        for name, start, end, parent, _ in self.spans[first:]:
            if parent is not None:
                child[parent] = child.get(parent, 0.0) + (end - start)
        self_times = {}
        for i, (name, start, end, _, _) in enumerate(self.spans[first:], first):
            self_times[name] = self_times.get(name, 0.0) + (end - start) - child.get(i, 0.0)
        return {"self": self_times, "counts": self.counts[-1]}


def layer_metrics(layers: list, traced_op_s: list, untraced_op_s: list) -> dict:
    """Per-layer metrics: the median over traced operations of each figure."""
    per_op = []
    for layer in layers:
        own, counts = layer["self"], layer["counts"]
        row = {metric: own.get(span, 0.0) for metric, span in SELF_TIMES.items()}
        directions = counts.get("kernels.directions", 0)
        kernel_s = row["kernels.steering_forms_s"]
        row["kernels.directions"] = directions
        row["kernels.directions_per_s"] = directions / kernel_s if kernel_s > 0 else 0.0
        row["protocols.efims_inverted"] = counts.get("protocols.efims_inverted", 0)
        row["scenario.tables_mb"] = counts.get("scenario.tables_bytes", 0) / 2**20
        row["geometry.steering_calls"] = counts.get("geometry.steering_calls", 0)
        per_op.append(row)
    metrics = {key: statistics.median(row[key] for row in per_op) for key in per_op[0]}
    metrics["trace.op_s"] = statistics.median(traced_op_s)
    metrics["trace.overhead_s"] = metrics["trace.op_s"] - statistics.median(untraced_op_s)
    return metrics

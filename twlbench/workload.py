"""One run of one benchmark workload, in this process.

run.py starts this file with PYTHONPATH naming the checkout's `src` and the
BLAS and OpenMP pools pinned to one thread in the environment, so the pins
hold before numpy is imported. The run calls `twl.cli.main` in-process, one
call after another (a closed loop with one caller). Each call writes its
table to a temporary JSON file; timing stops when the call returns, and the
table is read and checked after that. The run attempts whole rounds of
operations until --seconds have passed, then prints one JSON line for run.py.

With --setup-only the process stops where the first timed operation would
start and prints that instant, so run.py can time set-up more than once.
"""

import argparse
import glob
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

import numpy as np

import twl.cli
import twl.kernels

import checks
from tracing import Tracer, layer_metrics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")

#: Default service region of the CLI; point inputs are drawn inside it.
DIAMOND = np.array([[0.0, 0.0, -10.0], [25.0 * math.sqrt(3.0), 25.0, -10.0],
                    [0.0, 50.0, -10.0], [-25.0 * math.sqrt(3.0), 25.0, -10.0]])
#: The anchor's nadir, a vertex of the region: every call there fails today.
NADIR = (0.0, 0.0, -10.0)
#: Seeded positions per point round; each round then ends with one nadir call.
POINTS_PER_ROUND = 19
#: (protocol, initiator) pairs every subcommand evaluates.
N_PAIRS = 6
#: sweep-ant's reference array size and sweep-bw's reference bandwidth.
REFERENCE_ANTENNAS = 144
REFERENCE_BANDWIDTH_HZ = 125e6
#: Four times the power, in dB, for the power-scaling law.
FOUR_X_POWER_DB = 10.0 * math.log10(4.0)

#: name -> subcommand, fixed config lines, rows per table, bounds per call,
#: and the property check of one table.
WORKLOADS = {
    "cdf-100k": ("cdf", "n_positions = 100000\n", 18, 100000 * N_PAIRS,
                 checks.check_cdf),
    "sweep-bw": ("sweep-bw", "n_positions = 10000\n", 60, 10000 * N_PAIRS * 10,
                 checks.check_sweep_bw),
    "sweep-ant": ("sweep-ant", "n_positions = 10000\nsweep_side = bs\n", 25,
                  10000 * N_PAIRS * 5, checks.check_sweep_ant),
    "point": ("point", "", 6, N_PAIRS, checks.check_point),
}


def rounds(name: str, seed: int):
    """Endless rounds of (config text, is_nadir) operations, fixed by the seed."""
    fixed = WORKLOADS[name][1]
    if name != "point":
        while True:
            yield [(f"{fixed}seed = {seed}\n", False)]
    rng = np.random.default_rng(seed)
    a, b, c, d = DIAMOND
    while True:
        u = rng.random((POINTS_PER_ROUND, 3))
        r1 = np.sqrt(u[:, 1:2])
        r2 = u[:, 2:3]
        far = np.where(u[:, 0:1] < 0.5, b, d)  # the two halves have equal area
        xy = ((1.0 - r1) * a + r1 * (1.0 - r2) * far + r1 * r2 * c)[:, :2]
        ops = [(f"point_m = [{float(x)!r}, {float(y)!r}, {float(a[2])!r}]\n", False)
               for x, y in xy]
        yield ops + [("point_m = [{!r}, {!r}, {!r}]\n".format(*NADIR), True)]


def call_cli(argv: list, tracer: Tracer | None = None):
    """Run `twl` once in-process.

    Returns (exit code, seconds, traceback text); the exit code is None when
    the call ended in an uncaught exception.
    """
    originals = tracer.install() if tracer else ()
    try:
        start = time.perf_counter()
        try:
            code = tracer.call(twl.cli.main, argv) if tracer else twl.cli.main(argv)
        except SystemExit as exc:  # argparse reports usage errors this way
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a traceback is the failure this loop counts
            return None, time.perf_counter() - start, traceback.format_exc()
        return code, time.perf_counter() - start, None
    finally:
        Tracer.uninstall(originals)


class SinglePose:
    """Bounds at one position from the single-pose API, for the point check."""

    def __init__(self, scenario):
        from twl.beamforming import directional_beams, reverse_direction

        self.scenario = scenario
        bs_dirs = scenario.anchor_beam_directions()
        ue_dirs = [reverse_direction(th, ph) for th, ph in bs_dirs]
        self.arrays = {"bs": scenario.bs_array, "ue": scenario.ue_array}
        self.beams = {
            side: (directional_beams(self.arrays[side], dirs, "transmit"),
                   directional_beams(self.arrays[side], dirs, "receive"))
            for side, dirs in (("bs", bs_dirs), ("ue", ue_dirs))
        }

    def bounds(self, point) -> dict:
        from twl.fim import channel_fim
        from twl.pose import Pose, channel_geometry, location_jacobian
        from twl.protocols import assemble

        scn = self.scenario
        pose = Pose(np.asarray(point, dtype=float), *scn.orientation)
        # Anchor-first parameter order, as the batched pipeline uses for both
        # initiators: the initiator only decides which link is "forward".
        cg = channel_geometry(pose, scn.signal.wavelength, c=scn.signal.c)
        jac = location_jacobian(pose, c=scn.signal.c)
        down = channel_fim("forward", self.arrays["bs"], self.arrays["ue"],
                           self.beams["bs"][0], self.beams["ue"][1], cg, scn.signal)
        up = channel_fim("backward", self.arrays["ue"], self.arrays["bs"],
                         self.beams["ue"][0], self.beams["bs"][1], cg, scn.signal)
        out = {}
        for initiator, fwd, bwd in (("bs", down, up), ("ue", up, down)):
            for protocol in scn.protocols:
                bound = assemble(protocol, fwd, bwd, jac)
                out[(protocol, initiator)] = (bound.peb, math.degrees(bound.oeb),
                                              bound.condition)
        return out


def _blas_threads():
    """Threads the loaded OpenBLAS will use, or None where it cannot be asked."""
    import ctypes

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                return int(fn())
    return None


def machine_record() -> dict:
    """What the figures depend on besides the code."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "twl", "*.py"))):
        with open(path, "rb") as fh:
            digest.update(fh.read())
    backend = getattr(twl.kernels, "default_backend", None)
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "thread_pins": {key: value for key, value in sorted(os.environ.items())
                        if key.endswith("_NUM_THREADS")},
        "kernel_backend": backend() if backend else None,
        "src_sha256": digest.hexdigest()[:16],
    }


class Run:
    """The operations of one run and the checks on their tables."""

    def __init__(self, name: str, workdir: str):
        self.name = name
        self.subcommand, _, self.n_rows, self.bounds_per_op, self.check = WORKLOADS[name]
        self.workdir = workdir
        self.config_path = os.path.join(workdir, "config.txt")
        self.out_path = os.path.join(workdir, "table.json")
        self.problems = []
        self.first = None  # (config text, rows) of the first checked call
        self.last_rows = None
        self._single_pose = None

    def argv(self, config_text: str) -> list:
        with open(self.config_path, "w", encoding="utf-8") as fh:
            fh.write(config_text)
        return [self.subcommand, "--config", self.config_path, "--out", self.out_path,
                "--format", "json"]

    def _read_rows(self, subcommand: str, n_rows: int) -> list:
        with open(self.out_path, encoding="utf-8") as fh:
            doc = json.load(fh)
        os.remove(self.out_path)
        return checks.table_rows(doc, subcommand, n_rows)

    def check_op(self, config_text: str, code: int, is_nadir: bool) -> None:
        """Check one call's exit code and table; record any failure."""
        try:
            if is_nadir:
                if code == twl.cli.EXIT_OK:
                    self._read_rows(self.subcommand, self.n_rows)
                return
            if code != twl.cli.EXIT_OK:
                raise checks.CheckFailed(f"exit code {code}")
            rows = self._read_rows(self.subcommand, self.n_rows)
            self.check(rows)
            if self.name == "point":
                point = [rows[0]["px"], rows[0]["py"], rows[0]["pz"]]
                checks.check_point_matches(rows, self._reference(point))
            if self.first is None:
                self.first = (config_text, rows)
            self.last_rows = rows
        except (checks.CheckFailed, OSError, ValueError, KeyError, TypeError) as exc:
            self._problem(f"{config_text.strip()!r}: {type(exc).__name__}: {exc}")

    def _reference(self, point) -> dict:
        if self._single_pose is None:  # the codebooks are the same for every point
            scenario = twl.cli.parse_config(self.config_path).scenario()
            self._single_pose = SinglePose(scenario)
        return self._single_pose.bounds(point)

    def check_once(self) -> None:
        """Checks made once per run, on an extra untimed call."""
        try:
            if self.name == "sweep-ant":
                text, _ = self.first
                argv = self.argv(f"{text}bandwidths_hz = [{REFERENCE_BANDWIDTH_HZ!r}]\n")
                argv[0] = "sweep-bw"
                code, _, error = call_cli(argv)
                if code != twl.cli.EXIT_OK:
                    raise checks.CheckFailed(f"sweep-bw cross-check: exit {code} {error or ''}")
                bw_rows = self._read_rows("sweep-bw", N_PAIRS)
                checks.check_sweep_ant_matches_bw(self.last_rows, bw_rows,
                                                  REFERENCE_ANTENNAS, REFERENCE_BANDWIDTH_HZ)
            elif self.name == "point":
                text, base = self.first
                code, _, error = call_cli(
                    self.argv(f"{text}power_dbm = {FOUR_X_POWER_DB!r}\n"))
                if code != twl.cli.EXIT_OK:
                    raise checks.CheckFailed(f"power check: exit {code} {error or ''}")
                checks.check_power_scaling(base, self._read_rows("point", self.n_rows))
        except (checks.CheckFailed, OSError, ValueError, KeyError, TypeError) as exc:
            self._problem(f"once per run: {type(exc).__name__}: {exc}")

    def _problem(self, message: str) -> None:
        if len(self.problems) < 5:
            print(f"twlbench: check failed: {message}", file=sys.stderr)
        self.problems.append(message)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    src = os.path.realpath(os.path.join(ROOT, "src"))
    if not os.path.realpath(twl.cli.__file__).startswith(src + os.sep):
        print(f"twlbench: twl imported from {twl.cli.__file__}, not from the checkout",
              file=sys.stderr)
        return 2

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    try:
        return _measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(args, workdir: str) -> int:
    run = Run(args.workload, workdir)
    schedule = rounds(args.workload, args.seed)
    ops = next(schedule)
    run.argv(ops[0][0])
    first_op_at = time.perf_counter()
    if args.setup_only:
        print(json.dumps({"first_op_at": first_op_at}))
        return 0

    tracer = Tracer() if args.trace else None
    untraced, traced, layers = [], [], []
    attempted = failed = 0
    errors = []
    deadline = first_op_at + args.seconds
    round_index = 0
    while True:
        in_trace = tracer is not None and round_index % 2 == 1
        for config_text, is_nadir in ops:
            code, seconds, error = call_cli(run.argv(config_text),
                                            tracer if in_trace else None)
            attempted += 1
            if code is None:
                failed += 1
                if len(errors) < 1:
                    print(f"twlbench: call failed: {config_text.strip()}\n{error}",
                          file=sys.stderr)
                errors.append(error.strip().splitlines()[-1])
                continue
            if not is_nadir:
                if in_trace:
                    traced.append(seconds)
                    layers.append(tracer.op_layers())
                else:
                    untraced.append(seconds)
            run.check_op(config_text, code, is_nadir)
        round_index += 1
        if time.perf_counter() >= deadline and (tracer is None or round_index >= 2):
            break
        ops = next(schedule)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    run.check_once()

    if not untraced or (tracer is not None and not traced):
        print("twlbench: no operation succeeded; nothing to report", file=sys.stderr)
        return 1
    if tracer is None:
        op_s = statistics.median(untraced)
        metrics = {"op_s.p50": op_s, "bounds_per_s": run.bounds_per_op / op_s,
                   "peak_rss_mb": peak_rss_mb}
    else:
        metrics = layer_metrics(layers, traced, untraced)
        trace_path = os.path.join(
            OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": tracer.spans, "counts": tracer.counts}, fh)
    print(json.dumps({
        "first_op_at": first_op_at,
        "correct": not run.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "problems": run.problems[:20],
        "errors": sorted(set(errors)),
        "op_s": untraced,
        "traced_op_s": traced,
        "machine": machine_record(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

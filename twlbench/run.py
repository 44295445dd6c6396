#!/usr/bin/env python3
"""Run one workload of the twl benchmark and print its metrics.

    python3 twlbench/run.py --workload point --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout. It times set-up in SETUP_PROBES short
processes that stop where timing would start, then runs the workload in one
process (workload.py) and prints the machine record, each metric by name and
unit, and as its last line one JSON object with the keys correct, attempted,
failed and metrics. --trace 0 reports the end-to-end metrics, --trace 1 the
per-layer ones. The full record of the run goes to twlbench/out/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")

THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1"}
#: Set-up-only processes per run; setup_s is the median over them and the run.
SETUP_PROBES = 6
#: Seconds a run may take in all, below the 180 s a run is allowed.
RUN_LIMIT_S = 170.0


def _load_units():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def _git_commit():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _child(args, env, extra, timeout):
    """Start workload.py, wait for it, return (start instant, its JSON line)."""
    cmd = [sys.executable, os.path.join(HERE, "workload.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    started = time.perf_counter()
    done = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=timeout)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"workload process exited with {done.returncode}")
    return started, json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, help="checked by workload.py")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**63 or args.seconds < 1:
        parser.error("need 0 <= seed < 2**63 and seconds >= 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "twl", "cli.py")):
        print(f"twlbench: no twl sources under {os.path.join(ROOT, 'src')}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    end_units, layer_units = _load_units()

    env = dict(os.environ, **THREAD_PINS)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    deadline = time.perf_counter() + RUN_LIMIT_S
    try:
        setups = []
        for _ in range(SETUP_PROBES):
            started, probe = _child(args, env, ["--setup-only"], 60)
            setups.append(probe["first_op_at"] - started)
        started, result = _child(args, env, [], deadline - time.perf_counter())
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"twlbench: {exc}", file=sys.stderr)
        return 1
    setups.append(result["first_op_at"] - started)

    metrics = result["metrics"]
    if args.trace:
        units = layer_units
    else:
        units = end_units
        metrics["setup_s"] = statistics.median(setups)
    missing = sorted(set(units) - set(metrics))
    if missing:
        print(f"twlbench: metrics not measured: {missing}", file=sys.stderr)
        return 1
    machine = dict(result["machine"], git_commit=_git_commit())
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "setup_s": setups, **result, "machine": machine,
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"machine {json.dumps(machine, sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed}: {result['attempted']} attempted, "
          f"{result['failed']} failed, correct {result['correct']}")
    for error in result["errors"]:
        print(f"  failure: {error}")
    for problem in result["problems"]:
        print(f"  check failed: {problem}")
    for name, unit in units.items():
        print(f"  {name:34s} {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

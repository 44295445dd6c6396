"""Paired A/B timing of one twlbench workload: a base revision against this checkout.

    python3 tools/benchpair.py --base HEAD~1 --workload cdf-100k

Tree A is ``--base``, extracted with ``git archive`` into a temporary
directory; tree B is this checkout's working tree. Each tree gets one
worker process, started with ``PYTHONPATH`` naming that tree's ``src`` and
this checkout's ``twlbench``, and with the OpenBLAS, OpenMP and MKL pools
pinned to one thread. Both workers import ``twlbench/workload.py`` and take
their configs from its ``rounds`` with the same seed, so the k-th call of
each tree runs the same config. After one untimed warm-up call per tree, the
calls alternate A B B A, A B B A, ... for ``PAIRS`` = 10 pairs: every
adjacent (A, B) or (B, A) is a pair, so each tree runs first in half of
them. A call is one round of the
workload (one ``twl.cli.main`` call, or a round of ``point`` calls), timed
by ``workload.call_cli`` and checked by ``workload.Run.check_op``.

The record goes to ``BENCH_<workload>.json`` at the root of the checkout
(or ``--out``): the machine record, each tree's ``src`` digest, every
call's time in order, the pairs, the median of the per-pair ratios B/A
(over all pairs, and over those in which A or B ran first) with a 95%
percentile-bootstrap interval, the pairs B won, each tree's median and
quartiles, and ``resolved``: whether B's gain meets the claim rule (B
faster in at least nine tenths of the pairs, and the medians apart by more
than A's interquartile distance). ``no_worse_seconds`` and
``no_worse_max_rss`` say whether B lost nothing instead: whether B's
median time and peak RSS are within A's times (1 + the bound that
``BENCHMARK.json`` gives ``op_s.p50`` and ``peak_rss_mb``). Each call
also records the minor page faults its worker made during the call and
the worker's peak RSS after it (``getrusage``), and the record gives each
tree's median faults per call and its largest peak RSS. The workers are
persistent, so these are steady state figures: a fresh ``twl`` process
also pays its imports' faults. It
exits 1, after writing the record, if tree B failed more operations than
tree A or any check reported a problem, so that a record whose comparison
does not count cannot pass unseen. (Every ``point`` round ends with a call at the anchor's nadir,
which fails in both trees; equal counts are not a fault.) Running it with
``--base HEAD`` on a clean checkout times a tree against itself.
"""

import argparse
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "twlbench")
PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PAIRS = 10
# Resamples of the bootstrap interval of the median ratio, drawn from a fixed
# seed so that one record always gives the same interval.
RESAMPLES = 2000


def bounds() -> dict:
    """The benchmark's bound on each end-to-end metric, by name, from ``BENCHMARK.json``."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {metric["name"]: metric["bound"] for metric in json.load(fh)["end_to_end"]}


def src_digest(tree: str) -> str:
    """sha256 of ``src/twl/*.py`` in name order, as twlbench's machine record takes it."""
    digest = hashlib.sha256()
    package = os.path.join(tree, "src", "twl")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()[:16]


def host() -> dict:
    """CPU model and load average, which the machine record leaves out."""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            models = [line.split(":", 1)[1].strip() for line in fh
                      if line.startswith("model name")]
    except OSError:  # not Linux
        models = []
    return {"cpu_model": models[0] if models else None, "loadavg": os.getloadavg()}


def schedule(pairs: int) -> list:
    """Tree labels of the timed calls: A B B A repeated, 2·pairs calls."""
    return [("A", "B", "B", "A")[i % 4] for i in range(2 * pairs)]


def no_worse(a: list, b: list, bound: float, stat=statistics.median):
    """Whether ``stat`` of B's per-call values is within A's times (1 + ``bound``).

    "unresolved" when A's interquartile distance is wider than ``bound``
    times A's ``stat`` and not every B value is below every A value: A's
    own spread then hides a loss of the bound's size.
    """
    q1, _, q3 = statistics.quantiles(a, n=4, method="inclusive")
    if q3 - q1 > bound * stat(a) and max(b) >= min(a):
        return "unresolved"
    return stat(b) <= stat(a) * (1.0 + bound)


def summarize(calls: list) -> dict:
    """Pairs, ratios and per-tree quantiles of calls in `schedule` order.

    ``median_ratio_A_first`` and ``median_ratio_B_first`` are the medians
    over the pairs in which that tree ran first, which shows an order effect.
    ``median_ratio_ci95`` is the 2.5% and 97.5% percentiles of the median
    ratio over `RESAMPLES` resamples of the pairs with replacement, drawn
    from ``random.Random(0)``.
    ``resolved`` applies the claim rule to a gain of B: B won at least nine
    tenths of the pairs, ties counting for neither, and A's median exceeds
    B's by more than A's interquartile distance. ``minor_faults_<tree>`` is
    the tree's median minor faults per call, ``max_rss_mb_<tree>`` the
    largest peak RSS its worker reported. ``no_worse_seconds`` and
    ``no_worse_max_rss`` are `no_worse` of the call times (medians, at the
    ``op_s.p50`` bound) and of the peak RSS values (largest, at the
    ``peak_rss_mb`` bound).
    """
    starts = range(0, len(calls) - 1, 2)
    pairs = [{c["tree"]: c["seconds"] for c in calls[i:i + 2]} for i in starts]
    ratios = [p["B"] / p["A"] for p in pairs]
    rng = random.Random(0)
    medians = [statistics.median(rng.choices(ratios, k=len(ratios))) for _ in range(RESAMPLES)]
    cuts = statistics.quantiles(medians, n=40, method="inclusive")
    summary = {"pairs": pairs, "ratios": ratios,
               "median_ratio": statistics.median(ratios),
               "median_ratio_ci95": [cuts[0], cuts[-1]],
               "pairs_won_by_B": sum(r < 1.0 for r in ratios)}
    seconds, rss = {}, {}
    for tree in ("A", "B"):
        summary[f"median_ratio_{tree}_first"] = statistics.median(
            r for i, r in zip(starts, ratios) if calls[i]["tree"] == tree)
        own = [c for c in calls if c["tree"] == tree]
        seconds[tree] = [c["seconds"] for c in own]
        q1, median, q3 = statistics.quantiles(seconds[tree], n=4, method="inclusive")
        summary[f"seconds_{tree}"] = {"median": median, "q1": q1, "q3": q3}
        summary[f"minor_faults_{tree}"] = statistics.median(c["minor_faults"] for c in own)
        rss[tree] = [c["max_rss_mb"] for c in own]
        summary[f"max_rss_mb_{tree}"] = max(rss[tree])
    a, b = summary["seconds_A"], summary["seconds_B"]
    summary["resolved"] = (10 * summary["pairs_won_by_B"] >= 9 * len(pairs)
                           and a["median"] - b["median"] > a["q3"] - a["q1"])
    bound = bounds()
    summary["no_worse_seconds"] = no_worse(seconds["A"], seconds["B"], bound["op_s.p50"])
    summary["no_worse_max_rss"] = no_worse(rss["A"], rss["B"], bound["peak_rss_mb"], stat=max)
    return summary


def faults(calls: list) -> list:
    """Why the comparison does not count, one line each; empty when it does.

    B failing more operations than A is one line (both trees run the same
    operations, so their totals compare their shares); every problem a
    check reported is another.
    """
    failed = {tree: sum(c["failed"] for c in calls if c["tree"] == tree) for tree in "AB"}
    lines = []
    if failed["B"] > failed["A"]:
        lines.append(f"B failed {failed['B']} operations, A {failed['A']}")
    for call in calls:
        lines += [f"{call['tree']}: check failed: {problem}" for problem in call["problems"]]
    return lines


def worker(tree: str, workload_name: str, seed: int) -> int:
    """Serve timed rounds on stdin/stdout: one JSON line per ``next`` line."""
    sys.path[:0] = [os.path.join(tree, "src"), BENCH]
    import workload  # noqa: E402 (needs the paths above)

    workdir = tempfile.mkdtemp(prefix="benchpair-")
    try:
        run = workload.Run(workload_name, workdir)
        rounds = workload.rounds(workload_name, seed)
        print(json.dumps({"machine": workload.machine_record(),
                          "twl": os.path.dirname(workload.twl.cli.__file__)}), flush=True)
        for line in sys.stdin:
            if line.strip() != "next":
                break
            seconds, failed = 0.0, 0
            faults_before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            for config_text, is_nadir in next(rounds):
                code, took, _ = workload.call_cli(run.argv(config_text))
                seconds += took
                if code is None:
                    failed += 1
                else:
                    run.check_op(config_text, code, is_nadir)
            usage = resource.getrusage(resource.RUSAGE_SELF)  # ru_maxrss in kB on Linux
            print(json.dumps({"seconds": seconds, "failed": failed,
                              "problems": list(run.problems),
                              "minor_faults": usage.ru_minflt - faults_before,
                              "max_rss_mb": usage.ru_maxrss / 1024.0}), flush=True)
            run.problems.clear()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


class Worker:
    def __init__(self, tree: str, workload_name: str, seed: int):
        env = dict(os.environ, **{pin: "1" for pin in PINS})
        env.pop("PYTHONPATH", None)
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--worker", tree,
             "--workload", workload_name, "--seed", str(seed)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env)
        self.hello = self._read()

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited with code {self.proc.wait()}")
        return json.loads(line)

    def call(self) -> dict:
        self.proc.stdin.write("next\n")
        self.proc.stdin.flush()
        return self._read()

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD", help="git revision of tree A")
    parser.add_argument("--workload", default="cdf-100k")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", help="default: BENCH_<workload>.json at the checkout's root")
    parser.add_argument("--worker", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        return worker(args.worker, args.workload, args.seed)

    base = tempfile.mkdtemp(prefix="benchpair-base-")
    workers = {}
    try:
        commit = subprocess.run(["git", "-C", ROOT, "rev-parse", args.base], check=True,
                                capture_output=True, text=True).stdout.strip()
        archive = subprocess.run(["git", "-C", ROOT, "archive", commit, "src"],
                                 check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", base], input=archive, check=True)
        trees = {"A": base, "B": ROOT}
        for tree in ("A", "B"):
            workers[tree] = Worker(trees[tree], args.workload, args.seed)
            imported = os.path.realpath(workers[tree].hello["twl"])
            if not imported.startswith(os.path.realpath(trees[tree]) + os.sep):
                raise RuntimeError(f"tree {tree} imported twl from {imported}")
            workers[tree].call()  # warm-up, untimed
        before = host()
        calls = []
        for tree in schedule(PAIRS):
            reply = workers[tree].call()
            calls.append({"tree": tree, **reply})
            print(f"{tree} {reply['seconds']:.3f} s", file=sys.stderr)
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "order": "A B B A",
            "machine": {**{key: value for key, value in workers["A"].hello["machine"].items()
                           if key != "src_sha256"},
                        "cpu_model": before["cpu_model"],
                        "loadavg_before": before["loadavg"], "loadavg_after": host()["loadavg"]},
            "trees": {"A": {"revision": commit, "src_sha256": src_digest(base)},
                      "B": {"revision": "working tree", "src_sha256": src_digest(ROOT)}},
            "calls": calls,
            **summarize(calls),
        }
    finally:
        for w in workers.values():
            w.close()
        shutil.rmtree(base, ignore_errors=True)

    out = args.out or os.path.join(ROOT, f"BENCH_{args.workload}.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    found = faults(calls)
    for line in found:
        print(line, file=sys.stderr)
    low, high = record["median_ratio_ci95"]
    print(f"median B/A {record['median_ratio']:.3f} [{low:.3f}, {high:.3f}] (A first "
          f"{record['median_ratio_A_first']:.3f}, B first "
          f"{record['median_ratio_B_first']:.3f}), B faster in "
          f"{record['pairs_won_by_B']} of {len(record['pairs'])} pairs, "
          f"{'resolved' if record['resolved'] else 'unresolved'}; no worse: time "
          f"{record['no_worse_seconds']}, peak RSS {record['no_worse_max_rss']}; "
          f"minor faults per call "
          f"A {record['minor_faults_A']:g} B {record['minor_faults_B']:g}, peak RSS "
          f"A {record['max_rss_mb_A']:.1f} B {record['max_rss_mb_B']:.1f} MB, "
          f"{len(found)} fault(s) -> {out}")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())

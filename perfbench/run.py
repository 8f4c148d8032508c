"""Benchmark of the flagcohom CLI: end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke [--seed N]

Each workload is one fixed CLI command, listed with the sha256 of its
output at the seed commit in ``perfbench/spec.json``.  Every measurement is
a fresh child process (``perfbench/child.py``), one at a time: the harness
starts no threads and no parallel children.

``--trace 0`` repeats a cycle of one complete command and ``setup_per_full``
set-up-only children, while another cycle fits in ``--seconds``, and reports
the end-to-end metrics named in ``BENCHMARK.json``.  ``--trace 1`` runs one
untraced and two traced commands and reports the per-layer metrics; every
count must repeat exactly between the two traced commands.  ``--seed`` only
shuffles the order of the children.  Every complete command's stdout must
match the seed commit's bytes.

``--smoke`` runs the same harness on two small A2 commands, in both modes,
and checks that every metric of ``BENCHMARK.json`` is reported with its unit.

The last line of stdout is the JSON result.  A record of every child, with
the data needed to recognise a noisy host, goes to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import signal
import statistics
import sys
import time

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(ROOT, ".perfbench_out")
RUN_LIMIT_S = 170.0  # a run must end within 180 s; children past this are killed
CHILD_ENV = dict(os.environ, PYTHONHASHSEED="0")
# A cheap first child that writes the bytecode caches; it is not a sample.
WARMUP = {"argv": ["bs", "--type", "A1", "--word", "1"]}


def wait(pid, timeout):
    """Reap ``pid``, killing it once ``timeout`` seconds have passed."""

    def expire(signum, frame):
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, max(timeout, 0.01))
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.wait4(pid, 0)
        raise
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return os.waitstatus_to_exitcode(status), usage


def cpu_stat():
    """(total, steal) jiffies of all CPUs, or None where /proc is missing."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(v) for v in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return sum(fields), fields[7]


def steal_share(before, after):
    if before is None or after is None or after[0] == before[0]:
        return None
    return (after[1] - before[1]) / (after[0] - before[0])


def host_probe():
    """Median time of a fixed pure-Python loop; a busier host reads higher.

    On a virtual machine whose physical cores are shared, a child's CPU time
    grows with its wall time and steal time stays near zero when the host
    gets slower, so neither shows it; this probe, taken before and after a
    run, does.
    """
    times = []
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(1_000_000):
            total += i * i % 7
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def sha256_file(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def median(values):
    values = list(values)
    return statistics.median(values) if values else None


class Harness:
    """Spawns children one at a time and keeps a record of each."""

    def __init__(self, label, work, seed):
        self.label = label
        self.work = work
        self.rng = random.Random(seed)
        self.start = time.monotonic()
        self.records = []

    def spawn(self, mode):
        n = len(self.records)
        base = os.path.join(OUT, f"{self.label}.child{n}")
        report, out, err = base + ".json", base + ".out", base + ".err"
        for path in (report, report + ".spans.json"):
            if os.path.exists(path):
                os.remove(path)
        argv = [
            sys.executable, os.path.join(HERE, "child.py"), mode, report, "--",
            *self.work["argv"],
        ]
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [
            (os.POSIX_SPAWN_OPEN, 1, out, flags, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, err, flags, 0o644),
        ]
        stat0 = cpu_stat()
        start = time.monotonic()
        pid = os.posix_spawn(sys.executable, argv, CHILD_ENV, file_actions=actions)
        rc, usage = wait(pid, self.start + RUN_LIMIT_S - start)
        end = time.monotonic()
        rec = {
            "mode": mode,
            "rc": rc,
            "wall_s": end - start,
            "peak_rss_mb": usage.ru_maxrss / 1024,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "nivcsw": usage.ru_nivcsw,
            "steal_share": steal_share(stat0, cpu_stat()),
        }
        try:
            with open(report) as fh:
                child = json.load(fh)
        except (OSError, ValueError):
            child = {}
        if os.path.exists(report):
            os.remove(report)
        if os.path.getsize(err):
            rec["stderr"] = os.path.relpath(err, ROOT)
        else:
            os.remove(err)
        if "ready" in child:
            rec["setup_s"] = child["ready"] - start
        ok = rc == 0
        if mode == "setup":
            ok = ok and "setup_s" in rec
        else:
            rec["sha256"] = sha256_file(out)
            if rec["sha256"] != self.work["sha256"]:
                ok = False
                kept = os.path.join(OUT, f"{self.label}.{rec['sha256'][:16]}.out")
                os.replace(out, kept)
                rec["output"] = os.path.relpath(kept, ROOT)
        if os.path.exists(out):
            os.remove(out)
        if mode == "trace":
            rec["phases"] = child.get("phases")
            rec["layers"] = child.get("layers")
            spans = report + ".spans.json"
            if os.path.exists(spans):
                kept = os.path.join(OUT, f"{self.label}.child{n}.spans.json")
                os.replace(spans, kept)
                rec["spans"] = os.path.relpath(kept, ROOT)
        rec["ok"] = ok
        self.records.append(rec)
        return rec

    def run_cycles(self, seconds):
        """Cycles of one full command and its set-up children, for ``seconds``."""
        cycle = ["full"] + ["setup"] * self.work["setup_per_full"]
        while True:
            t0 = time.monotonic()
            self.rng.shuffle(cycle)
            for mode in cycle:
                self.spawn(mode)
            now = time.monotonic()
            took = now - t0
            if now + took > min(self.start + seconds, self.start + RUN_LIMIT_S):
                return

    def run_traced(self):
        order = ["full", "trace", "trace"]
        self.rng.shuffle(order)
        for mode in order:
            self.spawn(mode)


def end_to_end(h):
    full = [r for r in h.records if r["mode"] == "full"]
    return {
        "wall_s": median(r["wall_s"] for r in full),
        "setup_s": median(r["setup_s"] for r in h.records if "setup_s" in r),
        "peak_rss_mb": median(r["peak_rss_mb"] for r in full),
        "pass_rate": sum(r["ok"] for r in h.records) / len(h.records),
    }


def per_layer(h, units):
    """Median over the traced children; counts must agree exactly."""
    traced = [r for r in h.records if r["mode"] == "trace" and r["layers"]]
    metrics, problems = {}, []
    for name in traced[0]["layers"] if traced else ():
        values = [r["layers"][name] for r in traced]
        if units.get(name) == "count":
            if len(set(values)) > 1:
                problems.append(f"{name} differs between traced runs: {values}")
            metrics[name] = values[0]
        else:
            metrics[name] = median(values)
    for name in traced[0]["phases"] if traced else ():
        metrics[name] = median(r["phases"][name] for r in traced)
    total = median(r["wall_s"] for r in traced)
    untraced = median(r["wall_s"] for r in h.records if r["mode"] == "full")
    metrics["trace.total_s"] = total
    metrics["trace.other_s"] = median(
        r["wall_s"] - sum(r["phases"].values()) for r in traced
    )
    metrics["trace.overhead_s"] = (
        None if total is None or untraced is None else total - untraced
    )
    return metrics, problems


def benchmark_units(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def git_commit():
    """The checkout's commit when it is a git repository, else None."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    """sha256 over the package source, to tell code versions apart."""
    h = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "flagcohom")
    for name in sorted(os.listdir(pkg)):
        path = os.path.join(pkg, name)
        if os.path.isfile(path):
            h.update(name.encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def measure(label, work, seed, seconds, trace):
    """One benchmark run; writes its record and returns the result object."""
    label = f"{label}.seed{seed}.trace{int(trace)}"
    probe_before = host_probe()
    Harness(label + ".warmup", WARMUP, seed).spawn("setup")
    h = Harness(label, work, seed)
    kind = "per_layer" if trace else "end_to_end"
    units = benchmark_units(kind)
    if trace:
        h.run_traced()
        metrics, problems = per_layer(h, units)
    else:
        h.run_cycles(seconds)
        metrics, problems = end_to_end(h), []
    missing = sorted(n for n in units if metrics.get(n) is None)
    if missing:
        problems.append(f"metrics not measured: {missing}")
    failed = sum(not r["ok"] for r in h.records)
    result = {
        "correct": failed == 0 and not problems,
        "attempted": len(h.records),
        "failed": failed,
        "metrics": {n: {"value": metrics.get(n), "unit": units[n]} for n in units},
    }
    record = {
        "label": label,
        "argv": work["argv"],
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "golden_sha256": work["sha256"],
        "host_probe_s": [probe_before, host_probe()],
        "problems": problems,
        "children": h.records,
        "result": result,
    }
    with open(os.path.join(OUT, f"{label}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    for rec in h.records:
        if not rec["ok"]:
            print(f"failed child: {json.dumps(rec)}", file=sys.stderr)
    for problem in problems:
        print(problem, file=sys.stderr)
    return result


def smoke(spec, seed):
    """Both modes on the smoke commands; True when every metric has a value."""
    names = list(spec["smoke"])
    random.Random(seed).shuffle(names)
    ok = True
    for name in names:
        for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
            result = measure(f"smoke-{name}", spec["smoke"][name], seed, 0, trace)
            units = benchmark_units(kind)
            good = result["correct"] and all(
                isinstance(result["metrics"][n]["value"], (int, float))
                and result["metrics"][n]["unit"] == unit
                for n, unit in units.items()
            )
            ok = ok and good
            print(f"smoke {name} trace={int(trace)}: {'ok' if good else 'FAILED'}")
    return ok


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "flagcohom", "cli.py")):
        print("error: run from the root of a flagcohom checkout (no src/flagcohom)",
              file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "spec.json")) as fh:
        spec = json.load(fh)
    if not args.smoke and args.workload not in spec["workloads"]:
        parser.error(f"--workload must be one of {sorted(spec['workloads'])}")
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    os.makedirs(OUT, exist_ok=True)
    if args.smoke:
        return 0 if smoke(spec, args.seed) else 1
    result = measure(
        args.workload, spec["workloads"][args.workload], args.seed, args.seconds,
        bool(args.trace),
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of twistcalc: one workload per process, timed from outside.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload psi-cli --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the last stdout line is a JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced pass (see tracing.py).  The line before it records the run: Python
version, nproc, git commit, seed and input hash.  ``--size tiny`` shrinks the
generated workloads, for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

from speed import SpeedClock, WallClock  # noqa: E402
from tracing import METRICS, Tracer, unit  # noqa: E402
from workloads import TRUNC, WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
MODULES = ("tensor", "surface", "expansion", "johnson", "diagrams", "casson", "psi_data", "cli")
SETUPS_PER_PASS = 3

# (name, unit) of every end-to-end metric; BENCHMARK.json lists the same.
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("item_p50_ms", "ms"),
    ("peak_rss_mib", "MiB"),
    ("checks_passed_frac", "ratio"),
)


def import_twistcalc():
    """Import twistcalc afresh from the checkout's src; returns {short name: module}."""
    for name in [m for m in sys.modules if m == "twistcalc" or m.startswith("twistcalc.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    package = importlib.import_module("twistcalc")
    if Path(package.__file__).resolve().parent != SRC / "twistcalc":
        raise ImportError("twistcalc was not imported from %s" % SRC)
    tc = {name: importlib.import_module("twistcalc." + name) for name in MODULES}
    tc["twistcalc"] = package
    return tc


def fresh_import(workload):
    """A fresh import of twistcalc and its default expansion.

    Every pass starts from one, as each CLI invocation starts a new process,
    so state the program keeps in its modules never carries over between
    passes."""
    tc = import_twistcalc()
    return tc, tc["expansion"].default_expansion(workload.genus, TRUNC)


def set_up(workload, seed, workdir, tiny, clock=None):
    """Import, build the default expansion and generate the inputs; timed by
    ``clock`` (plain wall time by default).

    Garbage left by earlier passes is collected first, so that its
    collection is not charged to this set-up."""
    clock = clock or WallClock()
    gc.collect()
    clock.start()
    try:
        tc, exp = fresh_import(workload)
        state = workload.setup(tc, seed, workdir, tiny)
    finally:
        took = clock.stop()
    return took, tc, exp, state


def timed_pass(workload, tc, exp, state, tracer=None, clock=None):
    """Run each item once; returns (item seconds by ``clock``, outputs).  An
    item that raises has output None, which its checks count as failed."""
    clock = clock or WallClock()
    gc.collect()
    times, outputs = [], []
    for item in state.items:
        clock.start()
        if tracer is not None:
            tracer.active = True
        try:
            out = workload.run(tc, exp, state, item)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            out = None
        finally:
            if tracer is not None:
                tracer.active = False
            times.append(clock.stop())
        outputs.append(out)
    return times, outputs


def check_pass(workload, tc, state, outputs):
    """Failed and attempted check counts of one pass."""
    results = []
    for item, out in zip(state.items, outputs):
        try:
            results.extend(workload.check(tc, state, item, out))
        except Exception:
            traceback.print_exc(file=sys.stderr)
            results.append(False)
    return results.count(False), len(results)


def plain(output):
    """An output as plain data, comparable across fresh imports of twistcalc."""
    if isinstance(output, tuple):
        return tuple(plain(x) for x in output)
    terms = getattr(output, "terms", None)
    return output if terms is None else dict(terms)


def keep_going(start, seconds, passes):
    """Start another pass unless it would end more than half a pass after
    the run's seconds."""
    elapsed = perf_counter() - start
    return elapsed + 0.5 * elapsed / passes <= seconds


def measure(workload, seed, workdir, tiny, seconds):
    """Set up and run the pass, again and again, for ``seconds``.

    Each pass follows SETUPS_PER_PASS timed set-ups, so that set-up times are
    sampled across the whole run; setup_s is their median.  Every time is
    taken by a SpeedClock, scaled to a fixed host speed (see speed.py).  An
    item's time is its median over the passes; wall_s is the sum of the item
    times and item_p50_ms their median.  The plain wall times, probes
    included, go into the run record as raw_setup_s and raw_pass_s.
    """
    clock = SpeedClock()
    passes, setups, raw_setups, raw_passes = [], [], [], []
    failed = attempted = 0
    start = perf_counter()
    while True:
        for _ in range(SETUPS_PER_PASS):
            took, tc, exp, state = set_up(workload, seed, workdir, tiny, clock)
            setups.append(took)
            raw_setups.append(clock.raw)
        t0 = perf_counter()
        times, outputs = timed_pass(workload, tc, exp, state, clock=clock)
        raw_passes.append(perf_counter() - t0)
        f, a = check_pass(workload, tc, state, outputs)
        failed, attempted = failed + f, attempted + a
        passes.append(times)
        if not keep_going(start, seconds, len(passes)):
            break
    items = [statistics.median(repeats) for repeats in zip(*passes)]
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": sum(items),
        "item_p50_ms": 1000 * statistics.median(items),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "checks_passed_frac": (attempted - failed) / attempted,
    }
    extent = {
        "passes": len(passes),
        "items": len(items),
        "raw_setup_s": statistics.median(raw_setups),
        "raw_pass_s": statistics.median(raw_passes),
    }
    return values, failed, attempted, state, extent


def measure_traced(workload, state, seconds):
    """An untraced reference pass, then traced repeats of the same pass.

    Each traced repeat installs a tracer on a fresh import and traces one
    default_expansion call (the set-up) and then the pass.  Counts come from
    the first traced pass; self times are medians over the traced passes.
    Every traced output must equal the reference output.
    """
    start = perf_counter()
    tc, exp = fresh_import(workload)
    ref_times, outputs = timed_pass(workload, tc, exp, state)
    failed, attempted = check_pass(workload, tc, state, outputs)
    reference = [plain(out) for out in outputs]

    runs, walls, setup_self = [], [], []
    while True:
        tc = import_twistcalc()
        tracer = Tracer()
        tracer.install(tc)
        tracer.active = True
        exp = tc["expansion"].default_expansion(workload.genus, TRUNC)
        tracer.active = False
        setup_self.append(tracer.metrics()["expansion.default_expansion.self_s"])
        tracer.reset()
        times, outputs = timed_pass(workload, tc, exp, state, tracer)
        for out, ref in zip(outputs, reference):
            attempted += 1
            failed += out is None or plain(out) != ref
        runs.append(tracer.metrics())
        walls.append(sum(times))
        if len(runs) == 1:
            write_spans(workload, tracer)
        if not keep_going(start, seconds, len(runs) + 1):
            break
    values = dict(runs[0])
    for metric in METRICS:
        if metric.endswith(".self_s"):
            values[metric] = statistics.median(r[metric] for r in runs)
    values["expansion.default_expansion.self_s"] = statistics.median(setup_self)
    values["trace.overhead_ratio"] = statistics.median(walls) / sum(ref_times)
    return values, failed, attempted, {"passes": len(runs), "items": len(state.items)}


def write_spans(workload, tracer):
    """Keep the spans of the first traced pass, as [name, start, end, parent]."""
    with open(WORK / ("spans-%s.json" % workload.name), "w", encoding="utf-8") as fh:
        json.dump(tracer.spans, fh, separators=(",", ":"))


def git_commit():
    """The checked-out commit, read from .git without running git; None outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: ") :]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256():
    digest = hashlib.sha256()
    for path in sorted((SRC / "twistcalc").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)

    if not (SRC / "twistcalc" / "__init__.py").is_file():
        print("error: no twistcalc sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    workdir = WORK / ("run-%d" % os.getpid())
    workdir.mkdir(exist_ok=True)
    try:
        tiny = args.size == "tiny"
        if args.trace:
            state = set_up(workload, args.seed, workdir, tiny)[3]
            values, failed, attempted, extent = measure_traced(workload, state, args.seconds)
            units = {m: unit(m) for m in METRICS}
        else:
            values, failed, attempted, state, extent = measure(
                workload, args.seed, workdir, tiny, args.seconds
            )
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(workdir)

    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "source_sha256": source_sha256(),
        "inputs_sha256": hashlib.sha256(state.inputs.encode()).hexdigest(),
        **extent,
    }
    print(json.dumps({"run": record}))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": values[m], "unit": u} for m, u in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

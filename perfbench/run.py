"""Layered benchmark of ldshift.

Run from the repository root:

    python3 perfbench/run.py --workload ladder-bounds --seed 1 --seconds 30 --trace 0

Workloads (task lists in perfbench/configs/, described in workloads.py):
ladder-bounds, mc-rates, lemma-suite.  The run imports ldshift from ./src,
builds the task list from the seed, and repeats the whole list in one process:
at least MIN_PASSES passes, and more while another pass still ends within
--seconds.  Every pass's outputs are checked against perfbench/data/refs.json.

--trace 0 reports the end-to-end metrics: set-up time (median of fresh
processes that import ldshift, build the families and load the configs), the
wall time of a pass (the sum over tasks of each task's fastest time over the
passes), peak resident memory, tasks and tasks that pass their checks.  Both
times are scaled by a host probe run between the measured steps, see
run_untraced.

--trace 1 runs two untraced passes (the first for the process counters, the
second for the tracing overhead), then two traced passes (see tracing.py), checks
that their counters agree, reports the per-layer metrics of the first and
writes its spans to perfbench/out/.

The last line of standard output is the JSON result.  A task that misses its
reference counts in ``tasks_failed``; ``correct`` is false when a task shows a
problem that perfbench/data/known_failures.json does not list for it as
failing at the baseline, or when the traced counters differ.  ``failed``
counts tasks that raised.  The exit code is 2 when ldshift's sources are not in ./src.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 7
MIN_PASSES = 2
PROBE_REF_S = 0.007  # typical host_probe() time on a 2 vCPU 2.0 GHz Xeon


def _cap_threads():
    """Cap BLAS/OpenMP threads at the CPUs this process may use; must run
    before numpy is imported."""
    n = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, n)


def _fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_ldshift():
    src = ROOT / "src"
    if not (src / "ldshift" / "__init__.py").is_file():
        _fail(f"no ldshift sources under {src}")
    sys.path.insert(0, str(src))
    import ldshift

    if Path(ldshift.__file__).resolve().parent != (src / "ldshift").resolve():
        _fail(f"imported ldshift from {ldshift.__file__}, not {src}")
    return ldshift


def _environment():
    import numpy
    import scipy

    def cache(index):
        path = Path(f"/sys/devices/system/cpu/cpu0/cache/index{index}/size")
        try:
            return path.read_text().strip()
        except OSError:
            return "unknown"

    return {"nproc": len(os.sched_getaffinity(0)), "l2": cache(2), "l3": cache(3),
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


def measure_setup(workload, seed):
    """Median time from starting a fresh interpreter to a loaded workload,
    scaled like wall_s by host probes run before each start."""
    samples, probes = [], []
    cmd = [sys.executable, str(HERE / "run.py"), "--probe", "--workload", workload,
           "--seed", str(seed)]
    for _ in range(SETUP_PROBES):
        probes += [host_probe() for _ in range(3)]
        start = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            _, err = proc.communicate(timeout=120)
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed ({proc.returncode}): {err.strip()}")
        samples.append(elapsed)
    raw, probe = statistics.median(samples), statistics.median(probes)
    print(f"set-up: raw {raw:.4f} s, host probe {probe * 1e3:.3f} ms")
    return raw * PROBE_REF_S / probe


def host_probe():
    """Seconds taken by a fixed piece of numpy and pure-Python work that does
    not touch ldshift; run between tasks, it tracks how fast the host is."""
    import numpy as np

    x = np.linspace(1e-3, 1.0, 19248)  # the size of one quadrature node pair
    start = time.perf_counter()
    for i in range(40):
        float(np.sum(np.exp(x * (i % 7)) * np.log1p(x)))
    acc = 0.0
    for j in range(30000):
        acc += (j % 13) * 0.5
    return time.perf_counter() - start


def run_pass(tasks, tracer=None, probes=None):
    """Run every task once, each after a host probe when ``probes`` is a list
    to append to; returns ({task id: seconds}, {task id: (output, error)})."""
    times, outputs = {}, {}
    for task in tasks:
        if tracer is not None:
            tracer.task = task.id
        if probes is not None:
            probes.append(host_probe())
        start = time.perf_counter()
        try:
            outputs[task.id] = (task.run(), None)
        except Exception as exc:  # a task that raises is counted, not fatal
            outputs[task.id] = (None, f"raised {type(exc).__name__}: {exc}")
        times[task.id] = time.perf_counter() - start
    if tracer is not None:
        tracer.task = None
    return times, outputs


def check_pass(tasks, outputs):
    """{task id: [(label, detail)]} for the tasks whose output misses its
    reference, and the ids of the tasks that raised."""
    problems, raised = {}, set()
    for task in tasks:
        out, err = outputs[task.id]
        if err is not None:
            problems[task.id] = [("raised", err)]
            raised.add(task.id)
            continue
        try:
            found = task.check(out)
        except Exception as exc:  # an unreadable output is a failed check
            found = [("unreadable", f"{type(exc).__name__}: {exc}")]
        if found:
            problems[task.id] = found
    return problems, raised


def _verdict(workload, tasks, passes):
    """Print every failure; returns (failing ids, raised count, correct).

    known_failures.json lists, for each task that fails at the baseline, the
    labels of the problems it has there.  Any other problem, on any task,
    makes the run incorrect; a listed problem that is gone is reported."""
    listed = json.loads((HERE / "data" / "known_failures.json").read_text())[workload]
    failing, raised_total, found = set(), 0, {}
    for problems, raised in passes:
        failing |= set(problems)
        raised_total += len(raised)
        for tid, found_here in problems.items():
            for label, detail in found_here:
                found.setdefault(tid, {}).setdefault(label, detail)
    correct = True
    for task in tasks:
        expected = set(listed.get(task.id, {}).get("labels", ()))
        for label, detail in sorted(found.get(task.id, {}).items()):
            tag = "known" if label in expected else "NEW"
            correct &= label in expected
            print(f"FAIL [{tag}] {task.id}: {label}: {detail}")
        for label in sorted(expected - set(found.get(task.id, {}))):
            print(f"PASS [listed as a baseline failure] {task.id}: {label}")
    return failing, raised_total, correct


def _metric(value, unit):
    return {"value": value, "unit": unit}


def run_untraced(workload, seed, seconds, tasks):
    setup_s = measure_setup(workload, seed)
    passes, times, probes = [], [], []
    start = last = time.perf_counter()
    while len(times) < MIN_PASSES or 2 * time.perf_counter() - start - last <= seconds:
        last = time.perf_counter()
        t, outputs = run_pass(tasks, probes=probes)
        times.append(t)
        passes.append(check_pass(tasks, outputs))
    failing, raised, correct = _verdict(workload, tasks, passes)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # a burst of load from outside slows one task in one pass; the fastest
    # time of each task over the passes drops it
    raw_wall = sum(min(t[task.id] for t in times) for task in tasks)
    # a shared host's speed drifts by up to 1.8x over minutes, slowing every
    # pass of a run alike, and a fixed probe slows with it; wall_s is the raw
    # wall time scaled to a host on which the probe takes PROBE_REF_S
    probe = statistics.median(probes)
    wall = raw_wall * PROBE_REF_S / probe
    print("pass walls: " + " ".join(f"{sum(t.values()):.3f}" for t in times)
          + f"; raw wall {raw_wall:.3f} s, host probe {probe * 1e3:.3f} ms")
    metrics = {"setup_s": _metric(setup_s, "s"),
               "wall_s": _metric(wall, "s"),
               "peak_rss_mb": _metric(peak_mb, "MB"),
               "tasks": _metric(len(tasks), "count"),
               "tasks_passed": _metric(len(tasks) - len(failing), "count")}
    return {"correct": correct, "attempted": len(tasks) * len(passes), "failed": raised,
            "metrics": metrics}


def run_traced(workload, seed, tasks):
    import tracing

    # process counters of the first pass, which pays the page faults of a
    # fresh process as a CLI user does; the second is the untraced reference
    r0 = resource.getrusage(resource.RUSAGE_SELF)
    _, outputs = run_pass(tasks)
    r1 = resource.getrusage(resource.RUSAGE_SELF)
    passes = [check_pass(tasks, outputs)]
    plain, outputs = run_pass(tasks)
    plain_wall = sum(plain.values())
    passes.append(check_pass(tasks, outputs))
    tracers, walls = [], []
    for _ in range(2):
        tracer = tracing.Tracer()
        restore, missing = tracing.install(tracer)
        try:
            t, outputs = run_pass(tasks, tracer)
        finally:
            restore()
        passes.append(check_pass(tasks, outputs))
        tracers.append(tracer)
        walls.append(sum(t.values()))
    failing, raised, correct = _verdict(workload, tasks, passes)
    a, b = tracers[0].counts, tracers[1].counts
    same = a == b
    if not same:
        diff = {k: (a[k], b[k]) for k in set(a) | set(b) if a[k] != b[k]}
        print(f"NONDETERMINISTIC counters across two traced passes: {diff}")
    print(f"untraced wall {plain_wall:.3f} s, traced {walls[0]:.3f} s and {walls[1]:.3f} s; "
          f"counters identical: {same}")
    if missing:
        print("missing hooks (their counters read 0): " + ", ".join(missing))
    checks = tracing.baseline_checks(tracers[0], workload)
    for label, got, roadmap in checks:
        print(f"baseline: {label}: measured {got}, roadmap {roadmap}")

    m = tracing.layer_metrics(tracers[0])
    m["proc.cpu_user_s"] = r1.ru_utime - r0.ru_utime
    m["proc.cpu_sys_s"] = r1.ru_stime - r0.ru_stime
    m["proc.minor_faults"] = r1.ru_minflt - r0.ru_minflt
    m["trace.overhead_s"] = walls[0] - plain_wall
    m["trace.hooks_missing"] = len(missing)
    m["tasks_failed"] = len(failing)
    _write_trace(workload, seed, tracers[0], m, checks, missing, plain_wall, walls)
    metrics = {k: _metric(v, _unit(k)) for k, v in m.items()}
    return {"correct": correct and same, "attempted": len(tasks) * len(passes), "failed": raised,
            "metrics": metrics}


def _unit(name):
    if name == "mc_values_per_s":
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_frac", "_per_value")):
        return "ratio"
    return "count"


def _write_trace(workload, seed, tracer, metrics, checks, missing, plain_wall, walls):
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    t0 = tracer.spans[0][1] if tracer.spans else 0.0
    doc = {"workload": workload, "seed": seed, "environment": _environment(),
           "untraced_wall_s": plain_wall, "traced_wall_s": walls,
           "metrics": metrics, "missing_hooks": missing,
           "baseline_checks": [{"label": l, "measured": g, "roadmap": r} for l, g, r in checks],
           "counters": dict(tracer.counts),
           "task_counters": {str(k): dict(v) for k, v in tracer.task_counts.items()},
           "span_names": tracer.names,
           "spans": [[s[0], round(s[1] - t0, 7), round(s[2] - t0, 7), s[3]]
                     for s in tracer.spans]}
    (out / f"trace-{workload}-{seed}.json").write_text(json.dumps(doc))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true",
                        help="set up and print 'ready' (used to time set-up)")
    args = parser.parse_args(argv)

    _cap_threads()
    _import_ldshift()
    tasks = workloads.load(ROOT, args.workload, args.seed)
    if args.probe:
        print("ready", flush=True)
        return 0
    print("env " + json.dumps(_environment()))
    if args.trace:
        result = run_traced(args.workload, args.seed, tasks)
    else:
        result = run_untraced(args.workload, args.seed, args.seconds, tasks)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run one hyprec benchmark workload for one seed and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]

Run from the root of a checkout; the library is imported from ``src``.  With
``--trace 0`` the run measures set-up time in fresh interpreters, then
repeats whole passes over the seeded inputs in this one process (one caller,
no threads) and reports the end-to-end metrics.  With ``--trace 1`` it
times one untraced stretch, then one traced pass, and reports the per-layer
metrics named in ``BENCHMARK.json``.  Every output is checked against a
reference that does not come from hyprec, after timing stops.

End-to-end times are scaled to a reference machine speed measured by a
calibration job timed between operations (see REFERENCE_S); per-layer times
are raw.  Human-readable lines and one ``report`` JSON line (seed, commit,
versions, raw counts and raw times) come first; the last line of standard
output is the result object.  ``--out DIR`` also writes the report, and in traced runs the spans,
to files in DIR.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: Fresh interpreters started to measure set-up time; the median is reported.
SETUP_REPEATS = 5

#: Repeats of each outside-the-program probe of interpreter and import time.
PROBE_REPEATS = 3

SETUP_PROBE = "import sys, hyprec; from perfbench import workloads; workloads.warm_up(sys.argv[1])"

#: End-to-end times are reported at a fixed machine speed.  The machines this
#: runs on share cores, and their speed drifts by up to 2x from one minute to
#: the next, by different amounts for different kinds of work.  So between
#: operations (never inside a timed one) the run times a fixed job of the
#: workload's own kind, done without hyprec (``workloads.*_job``), and divides
#: each time by (median job time / reference job time).  Set-up time is scaled
#: by the interpreter start-up job.  The report line keeps the raw values.
REFERENCE_S = {
    "fraction_job": 0.0015,
    "series_job": 0.002,
    "nodes_job": 0.0026,
    "startup_job": 0.22,
}
CALIBRATION_EVERY_S = 0.25


def _fail(msg: str) -> None:
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(2)


class Calibration:
    """Timings of a fixed calibration job, taken between timed operations."""

    def __init__(self, job):
        self.job = job
        self.samples: list[float] = []
        self._last = -float("inf")

    def sample(self) -> None:
        t0 = time.perf_counter()
        self.job()
        self._last = time.perf_counter()
        self.samples.append(self._last - t0)

    def maybe(self) -> None:
        if time.perf_counter() - self._last >= CALIBRATION_EVERY_S:
            self.sample()

    def slowdown(self) -> float:
        """How much slower than the reference speed this run's machine was."""
        return statistics.median(self.samples) / REFERENCE_S[self.job.__name__]


def _timed_child(argv: list[str]) -> tuple[float, str]:
    """Wall time of one fresh interpreter run, and its standard error."""
    t0 = time.perf_counter()
    from perfbench.workloads import child_env

    proc = subprocess.run(argv, cwd=ROOT, env=child_env(SRC, ROOT), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{argv[1:3]} exited {proc.returncode}: {proc.stderr[-500:]}")
    return wall, proc.stderr


def measure_setup(name: str, cal: Calibration) -> list[float]:
    walls = []
    for _ in range(SETUP_REPEATS):
        cal.sample()
        walls.append(_timed_child([sys.executable, "-c", SETUP_PROBE, name])[0])
    cal.sample()
    return walls


def import_probe() -> dict:
    """cli.interpreter_s and cli.import.* from fresh interpreters (medians)."""
    bare = [_timed_child([sys.executable, "-c", "pass"])[0] for _ in range(PROBE_REPEATS)]
    totals, scipy, numpy = [], [], []
    for _ in range(PROBE_REPEATS):
        _, err = _timed_child([sys.executable, "-X", "importtime", "-c", "import hyprec"])
        rows = {}
        self_us = {"scipy": 0, "numpy": 0}
        for line in err.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            fields = [f.strip() for f in line[len("import time:"):].split("|")]
            if not fields[0].isdigit():
                continue
            own, cumulative, module = int(fields[0]), int(fields[1]), fields[2]
            rows[module] = cumulative
            top = module.split(".")[0]
            if top in self_us:
                self_us[top] += own
        totals.append(rows["hyprec"] / 1e6)
        scipy.append(self_us["scipy"] / 1e6)
        numpy.append(self_us["numpy"] / 1e6)
    return {
        "cli.interpreter_s": statistics.median(bare),
        "cli.import.total_s": statistics.median(totals),
        "cli.import.scipy_s": statistics.median(scipy),
        "cli.import.numpy_s": statistics.median(numpy),
    }


def _commit() -> str:
    """HEAD of the checkout when it is a git work tree, read without leaving it."""
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
    return "unknown"


def _versions() -> dict:
    out = {"python": sys.version.split()[0]}
    for pkg in ("numpy", "scipy", "mpmath"):
        try:
            out[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            out[pkg] = None
    return out


class Loop:
    """Closed loop over whole passes of a workload's seeded operations."""

    def __init__(self, wl, pool, runner, child_rss=False, cal=None):
        self.wl = wl
        self.pool = pool
        self.runner = runner
        self.child_rss = child_rss
        self.cal = cal
        self.durations: list[float] = []
        self.first: list = [None] * len(pool)
        self.passes = 0
        self.attempted = 0
        self.failed = 0
        self.mismatched = 0
        self.peak_child_kib = 0
        self.by_kind: dict = {}

    def one_pass(self) -> None:
        from perfbench.workloads import Failed

        import hyprec

        clock = time.perf_counter
        for i, op in enumerate(self.pool):
            rss = 0
            t0 = clock()
            try:
                out = self.runner(op)
            except hyprec.HyprecError as exc:
                out = Failed(type(exc).__name__, True)
            except Exception as exc:  # a crash is a wrong output, not a failure
                out = Failed(f"{type(exc).__name__}: {exc}", False)
            dt = clock() - t0
            if self.child_rss and not isinstance(out, Failed):
                out, rss = out
            self.durations.append(dt)
            self.by_kind.setdefault(op.kind, []).append(dt)
            self.peak_child_kib = max(self.peak_child_kib, rss)
            self.attempted += 1
            if self._failed(out):
                self.failed += 1
            if self.passes == 0:
                self.first[i] = out
            elif out != self.first[i]:
                self.mismatched += 1
            if self.cal is not None:
                self.cal.maybe()
        self.passes += 1

    @staticmethod
    def _failed(out) -> bool:
        from perfbench.workloads import Exit, Failed

        if isinstance(out, Failed):
            return out.hyprec
        return isinstance(out, Exit) and out.code != 0

    def run_for(self, seconds: float) -> None:
        """Whole passes while the next one is expected to end within ``seconds``."""
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            self.one_pass()
            last = time.perf_counter() - t0
            if time.perf_counter() - start + last > seconds:
                break

    def rate(self) -> float:
        return self.attempted / sum(self.durations)

    def last_pass_rate(self) -> float:
        return len(self.pool) / sum(self.durations[-len(self.pool):])


def judge(wl, pool, outputs, repeats: int, refs_cache: dict) -> dict:
    """Check outputs against references; counts are per operation attempted."""
    from perfbench.workloads import Failed, Verdict

    wrong = checked = violated = 0
    worst: dict = {}
    for i, (op, out) in enumerate(zip(pool, outputs)):
        if isinstance(out, Failed):
            if not out.hyprec:
                wrong += repeats
            continue
        if Loop._failed(out):
            continue
        if i not in refs_cache:
            refs_cache[i] = wl.reference(op)
        try:
            v = wl.judge(op, out, refs_cache[i])
        except (ValueError, KeyError, TypeError):  # unparsable output
            v = Verdict(wrong=True)
        wrong += repeats * v.wrong
        checked += repeats * v.bounds_checked
        violated += repeats * v.bounds_violated
        worst[op.kind] = max(worst.get(op.kind, 0.0), v.worst_rel)
    return {"wrong": wrong, "bounds_checked": checked, "bounds_violated": violated, "worst_rel": worst}


def end_to_end(args, wl, pool) -> tuple[dict, dict, dict]:
    from perfbench import stats

    from perfbench.workloads import startup_job

    startup = Calibration(startup_job)
    setup = measure_setup(wl.name, startup)
    cal = Calibration(wl.calibration)
    loop = Loop(wl, pool, wl.run, child_rss=not wl.in_process, cal=cal)
    if wl.in_process:
        wl.warm_up()
    cal.sample()
    loop.run_for(args.seconds)
    cal.sample()
    if wl.in_process:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    else:
        peak_mb = loop.peak_child_kib / 1024
    checks = judge(wl, pool, loop.first, loop.passes, {})
    n = loop.attempted
    tail_pct = stats.pick_tail_percentile(len(pool))
    if tail_pct is None:
        raise RuntimeError(f"a pass of {len(pool)} operations is too short for a tail percentile")
    wrong = checks["wrong"] + loop.mismatched
    raw = {
        "setup_s": statistics.median(setup),
        "ops_per_s": loop.rate(),
        "op_p50_ms": 1e3 * stats.percentile(loop.durations, 50),
        "op_tail_ms": 1e3 * stats.percentile(loop.durations, tail_pct),
    }
    slowdown = cal.slowdown()
    metrics = {
        "setup_s": raw["setup_s"] / startup.slowdown(),
        "ops_per_s": raw["ops_per_s"] * slowdown,
        "op_p50_ms": raw["op_p50_ms"] / slowdown,
        "op_tail_ms": raw["op_tail_ms"] / slowdown,
        "ok_frac": 1 - loop.failed / n,
        "right_frac": 1 - wrong / n,
        "bound_held_frac": 1 - checks["bounds_violated"] / checks["bounds_checked"] if checks["bounds_checked"] else 1.0,
        "peak_rss_mb": peak_mb,
    }
    report = {
        "raw": raw,
        "slowdown": {"setup": startup.slowdown(), "ops": slowdown},
        "calibration_job": cal.job.__name__,
        "calibration_samples": len(cal.samples),
        "passes": loop.passes,
        "ops_per_pass": len(pool),
        "setup_samples_s": setup,
        "tail_percentile": tail_pct,
        "tail_samples": n,
        "tail_samples_beyond": stats.samples_beyond(n, tail_pct),
        "failed_frac": loop.failed / n,
        "wrong_outputs": wrong,
        "bound_violations": checks["bounds_violated"],
        "bounds_checked": checks["bounds_checked"],
        "worst_rel_error": checks["worst_rel"],
        "op_p50_ms_by_kind": {k: 1e3 * statistics.median(v) for k, v in sorted(loop.by_kind.items())},
    }
    counts = {"attempted": n, "failed": loop.failed, "wrong": wrong}
    return metrics, report, counts


def per_layer(args, wl, pool, spans_out) -> tuple[dict, dict, dict]:
    import hyprec
    import hyprec.cli  # noqa: F401

    from perfbench import tracing

    metrics = import_probe()
    walls: dict = {}
    if not wl.in_process:
        outside = Loop(wl, pool, wl.run, child_rss=True)
        outside.one_pass()
        for op, dt in zip(pool, outside.durations):
            walls.setdefault(wl.argv(op)[0], []).append(dt)
        inside_runner = wl.run_in_process
    else:
        outside = None
        inside_runner = wl.run
    for sub in ("coeffs", "eval", "near-one", "classify", "mean", "gm-scan", "qprofile", "verify"):
        metrics[f"cli.{sub}.wall_s"] = statistics.median(walls[sub]) if sub in walls else 0.0
    wl.warm_up()
    plain = Loop(wl, pool, inside_runner)
    plain.run_for(args.seconds / 2)
    tracer = tracing.Tracer()
    traced = Loop(wl, pool, inside_runner)
    tracer.install()
    try:
        traced.one_pass()
    finally:
        tracer.uninstall()
    records = tracer.records()
    metrics.update(tracing.layer_metrics(records))
    metrics.update(tracing.verify_metrics(records, hyprec.verify.SUITES))
    metrics["trace.overhead_frac"] = 1 - traced.rate() / plain.last_pass_rate()
    spans_out.extend(records)
    refs_cache: dict = {}
    loops = [loop for loop in (outside, plain, traced) if loop is not None]
    wrong = failed = attempted = 0
    for loop in loops:
        checks = judge(wl, pool, loop.first, loop.passes, refs_cache)
        wrong += checks["wrong"] + loop.mismatched
        failed += loop.failed
        attempted += loop.attempted
    report = {
        "untraced_passes": plain.passes,
        "traced_passes": traced.passes,
        "ops_per_pass": len(pool),
        "spans": len(records),
        "wrong_outputs": wrong,
    }
    return metrics, report, {"attempted": attempted, "failed": failed, "wrong": wrong}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="directory for the report and spans")
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        _fail("--seconds must be positive")

    bench_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(bench_path):
        _fail(f"BENCHMARK.json not found in {ROOT}")
    if not os.path.isfile(os.path.join(SRC, "hyprec", "__init__.py")):
        _fail(f"no hyprec sources under {SRC}; run from a checkout of the repository")
    with open(bench_path) as fh:
        bench = json.load(fh)
    if sys.path and os.path.abspath(sys.path[0]) == os.path.join(ROOT, "perfbench"):
        sys.path.pop(0)
    sys.path[:0] = [SRC, ROOT]

    import hyprec

    if not os.path.abspath(hyprec.__file__).startswith(SRC + os.sep):
        _fail(f"imported hyprec from {hyprec.__file__}, not from {SRC}")
    from perfbench import workloads

    if args.workload not in workloads.NAMES:
        _fail(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.NAMES)}")
    wl = workloads.get(args.workload, ROOT)
    pool = wl.pool(args.seed)
    spans: list = []
    if args.trace:
        metrics, report, counts = per_layer(args, wl, pool, spans)
        declared = bench["per_layer"]
    else:
        metrics, report, counts = end_to_end(args, wl, pool)
        declared = bench["end_to_end"]
    names = [m["name"] for m in declared]
    if set(names) != set(metrics):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(names))} differ from BENCHMARK.json")

    report = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": _commit(),
        "nproc": os.cpu_count(),
        "versions": _versions(),
        **report,
    }
    result = {
        "correct": counts["wrong"] == 0,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }
    for m in declared:
        print(f"{wl.name} {m['name']:<40} {metrics[m['name']]:.6g} {m['unit']}")
    print("report " + json.dumps(report, sort_keys=True))
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        stem = os.path.join(args.out, f"{wl.name}-seed{args.seed}-trace{args.trace}")
        with open(stem + ".json", "w") as fh:
            json.dump({"report": report, "result": result}, fh, sort_keys=True)
        if spans:
            with open(stem + ".spans.jsonl", "w") as fh:
                for record in spans:
                    fh.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

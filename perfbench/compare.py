"""Collect result sets, check their spread, and compare a parent with a change.

    python3 perfbench/compare.py collect --seeds 1-10 OUT.jsonl[=CHECKOUT] ...
    python3 perfbench/compare.py spread RESULTS.jsonl
    python3 perfbench/compare.py diff PARENT.jsonl CHANGE.jsonl

``collect`` runs ``perfbench/run.py`` of each CHECKOUT (default: this one)
untraced, for ``run_seconds``, for every workload and seed, one run at a
time, and appends one JSON line per run to the matching OUT file.  With two
targets it alternates which checkout runs first from one seed to the next.

``spread`` prints, per workload and end-to-end metric, the median, the
quartiles and the interquartile distance as a share of the median, against
the metric's bound from BENCHMARK.json.

``diff`` pairs runs by workload and seed and applies ``stats.compare_metric``
to every end-to-end metric: pairs won, medians and quartiles, the
regression bound, and "unresolved" where the spread exceeds the bound.  Run
on two result sets of the same code, every verdict should read "same".
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
if __package__ in (None, ""):
    if sys.path and os.path.abspath(sys.path[0]) == HERE:
        sys.path.pop(0)
    sys.path.insert(0, ROOT)

from perfbench import stats  # noqa: E402


def _bench(root: str = ROOT) -> dict:
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(checkout: str, workload: str, seed: int, seconds: int) -> dict:
    """One untraced benchmark run in ``checkout``; returns its report and result."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} in {checkout} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    report = next(json.loads(ln[len("report "):]) for ln in lines if ln.startswith("report "))
    return {"workload": workload, "seed": seed, "report": report, "result": json.loads(lines[-1])}


def collect(args) -> int:
    targets = []
    for spec in args.targets:
        out, _, checkout = spec.partition("=")
        targets.append((out, os.path.abspath(checkout or ROOT)))
    bench = _bench(targets[0][1])
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    for i, seed in enumerate(_seeds(args.seeds)):
        for workload in workloads:
            order = targets if i % 2 == 0 else targets[::-1]
            for out, checkout in order:
                row = run_once(checkout, workload, seed, bench["run_seconds"])
                with open(out, "a") as fh:
                    fh.write(json.dumps(row, sort_keys=True) + "\n")
                res = row["result"]
                print(f"{os.path.basename(out)} {workload} seed={seed} correct={res['correct']} "
                      f"attempted={res['attempted']} failed={res['failed']}", flush=True)
    return 0


def _load(path: str) -> dict:
    """{(workload, seed): {metric: value}} of a result file."""
    rows = {}
    with open(path) as fh:
        for line in fh:
            row = json.loads(line)
            rows[(row["workload"], row["seed"])] = {k: v["value"] for k, v in row["result"]["metrics"].items()}
    return rows


def spread(args) -> int:
    bench = _bench()
    rows = _load(args.results)
    ok = True
    print(f"{'workload':<15} {'metric':<16} {'n':>3} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8} {'bound':>6}  verdict")
    for wl in [w["name"] for w in bench["workloads"]]:
        seeds = sorted(s for w, s in rows if w == wl)
        if len(seeds) < 2:
            continue
        for m in bench["end_to_end"]:
            values = [rows[(wl, s)][m["name"]] for s in seeds]
            q1, med, q3 = stats.quartiles(values)
            frac = stats.spread(values)
            if m["name"] == "setup_s":
                verdict = "not gated"
            elif frac < m["bound"] / 3:
                verdict = "steady"
            elif frac <= m["bound"]:
                verdict = "within bound"
            else:
                verdict = "TOO WIDE"
                ok = False
            print(f"{wl:<15} {m['name']:<16} {len(values):>3} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {frac:>8.4f} {m['bound']:>6}  {verdict}")
    return 0 if ok else 1


def diff(args) -> int:
    bench = _bench()
    parent, change = _load(args.parent), _load(args.change)
    steady = True
    print(f"{'workload':<15} {'metric':<16} {'parent med':>12} {'change med':>12} {'worse by':>9} {'won':>5} {'bound':>6}  verdict")
    for wl in [w["name"] for w in bench["workloads"]]:
        seeds = sorted(s for w, s in parent if w == wl and (w, s) in change)
        if not seeds:
            continue
        for m in bench["end_to_end"]:
            p = [parent[(wl, s)][m["name"]] for s in seeds]
            c = [change[(wl, s)][m["name"]] for s in seeds]
            res = stats.compare_metric(p, c, m["better"], m["bound"])
            steady = steady and res["verdict"] == "same"
            print(f"{wl:<15} {m['name']:<16} {res['parent'][1]:>12.6g} {res['change'][1]:>12.6g} "
                  f"{res['worse_by_frac']:>+9.4f} {res['won']:>5.2f} {m['bound']:>6}  {res['verdict']}")
    print(f"steady: {'yes' if steady else 'no'}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("collect", help="run the benchmark and append results")
    p.add_argument("--seeds", required=True, help="e.g. 1-10 or 1,3,5")
    p.add_argument("--workloads", default=None, help="comma-separated; default all")
    p.add_argument("targets", nargs="+", help="OUT.jsonl or OUT.jsonl=CHECKOUT")
    p = sub.add_parser("spread", help="spread of each end-to-end metric")
    p.add_argument("results")
    p = sub.add_parser("diff", help="parent versus change")
    p.add_argument("parent")
    p.add_argument("change")
    args = parser.parse_args(argv)
    return {"collect": collect, "spread": spread, "diff": diff}[args.command](args)


if __name__ == "__main__":
    sys.exit(main())

"""Alternating parent/change runs of the perfbench workloads, summarised as a
BENCH_<n>.json file.

Usage, from the repository root:

    python3 tools/bench_pairs.py --parent HEAD --out BENCH_5.json \
        --first-seed 501 --pairs 10 --claim steps_per_s:sudoku:1.5

The parent side is `git archive` of the `--parent` revision; the change side
is a copy of the working tree (tracked files and untracked files that git
does not ignore). Each side runs from its own temporary directory, so
neither reads the other's outputs. For each workload, pair i runs
`perfbench/run.py --workload W --seed S --seconds T --trace 0` on both sides
with the same seed S = first seed + i, the parent first on even pairs and
the change first on odd ones. The run length and the end-to-end metrics with
their bounds come from BENCHMARK.json.

After the pairs, peak RSS is also measured at an equal request count: each
side runs requests 0..R-1 of the first seed, keeping every outcome as
perfbench does, where R is the median request count of the parent's runs.

The output holds the method, the machine, every run's metrics, each side's
median and quartiles (linear interpolation, as numpy's percentile), the
pairs the change won, the fraction by which its median is worse, and the
verdict on the claim: the change's median is at least the claimed ratio of
the parent's, it wins at least nine tenths of the pairs, and the gap between
the medians exceeds the parent's interquartile range. The file is rewritten
after every run, with "complete": false until the last one.

Only the standard library is used; the runs use the interpreter running
this script.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import platform
import shlex
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Runs requests 0..n-1 of one workload and seed in one process, keeping every
# outcome, and prints the process's peak RSS. Run from a checkout's root.
EQUAL_COUNT = """
import json, resource, sys, tempfile
from pathlib import Path
sys.path[:0] = ["src", "perfbench"]
import workloads
name, seed, n = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
with tempfile.TemporaryDirectory() as d:
    wl = workloads.WORKLOADS[name](seed, Path(d))
    wl.setup(1)
    outs = [wl.request(i) for i in range(n)]
    print(json.dumps({
        "requests": len(outs),
        "failed": sum(1 for o in outs if o.errors),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }))
"""


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) with numpy's default linear interpolation."""
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def export_parent(rev: str, dest: Path) -> None:
    data = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                          check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(dest, filter="data")


def copy_worktree(dest: Path) -> None:
    names = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=ROOT, check=True, capture_output=True,
    ).stdout.decode().split("\0")
    for name in filter(None, names):
        src = ROOT / name
        if src.is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def perfbench(side: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run; its metrics, counts and run information."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=side, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    lines = [ln for ln in proc.stdout.splitlines() if ln.startswith("{")]
    if proc.returncode != 0 or len(lines) < 2:
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}",
                "wall_s": wall}
    info, result = json.loads(lines[-2])["info"], json.loads(lines[-1])
    return {
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"], "requests": info["samples"]["requests"],
        "numpy": info["numpy"], "wall_s": wall,
    }


def equal_count(side: Path, workload: str, seed: int, requests: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", EQUAL_COUNT, workload, str(seed), str(requests)],
        cwd=side, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        return {"error": proc.stderr.strip()[-300:]}
    return json.loads(proc.stdout.splitlines()[-1])


def compare(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """Medians, quartiles, wins and the bound check of one metric."""
    sign = 1 if better == "higher" else -1
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    worse = sign * (pm - cm) / pm if pm else 0.0
    return {
        "better": better, "bound": bound,
        "parent": {"median": pm, "q1": p1, "q3": p3, "runs": parent},
        "change": {"median": cm, "q1": c1, "q3": c3, "runs": change},
        "change_over_parent_median": cm / pm if pm else None,
        "change_wins": f"{wins}/{len(parent)}",
        "worse_by_fraction": worse,
        "within_bound": worse <= bound,
        "parent_iqr": p3 - p1,
        "median_gap_exceeds_parent_iqr": abs(cm - pm) > p3 - p1,
    }


def claim_verdict(claim: str, workloads: dict) -> dict:
    metric, workload, ratio = claim.split(":")
    ratio = float(ratio)
    m = workloads.get(workload, {}).get("metrics", {}).get(metric)
    required = (f"median at least x{ratio} the parent's ({metric} {{better}}), change "
                f"wins at least 9/10 of the pairs, median gap > parent IQR")
    if m is None:
        return {"metric": metric, "workload": workload, "result": "not measured"}
    pm, cm = m["parent"]["median"], m["change"]["median"]
    gain = cm / pm if m["better"] == "higher" else pm / cm
    won, pairs = map(int, m["change_wins"].split("/"))
    met = (gain >= ratio and won >= math.ceil(0.9 * pairs)
           and m["median_gap_exceeds_parent_iqr"])
    return {
        "metric": metric, "workload": workload,
        "required": required.format(better=m["better"] + " is better"),
        "result": (f"{'met' if met else 'not met'}: median {pm:.6g} -> {cm:.6g} "
                   f"(x{gain:.2f}), change wins {m['change_wins']}, "
                   f"parent IQR {m['parent_iqr']:.6g}"),
        "met": met,
    }


def summarise(args, bench: dict, runs: dict, rss: dict, machine: dict) -> dict:
    out_workloads = {}
    for w, pairs in runs.items():
        ok = [r for r in pairs if "error" not in r["parent"] and "error" not in r["change"]]
        entry = {
            "pairs": len(pairs), "seeds": [r["seed"] for r in pairs],
            "order": [r["order"] for r in pairs],
            "failed": {s: sum(r[s].get("failed", 1) for r in pairs) for s in ("parent", "change")},
            "attempted": {s: sum(r[s].get("attempted", 0) for r in pairs)
                          for s in ("parent", "change")},
            "errors": [r[s]["error"] for r in pairs for s in ("parent", "change")
                       if "error" in r[s]],
            "metrics": {},
        }
        if ok:
            for m in bench["end_to_end"]:
                entry["metrics"][m["name"]] = compare(
                    [r["parent"]["metrics"][m["name"]] for r in ok],
                    [r["change"]["metrics"][m["name"]] for r in ok],
                    m["better"], m["bound"],
                )
        if w in rss:
            entry["peak_rss_at_equal_requests"] = rss[w]
        out_workloads[w] = entry
    return {
        "what": args.what,
        "complete": False,
        "method": {
            "command": "python3 perfbench/run.py --workload W --seed S "
                       f"--seconds {args.seconds:g} --trace 0",
            "tool": shlex.join(["python3", "tools/bench_pairs.py", *sys.argv[1:]]),
            "parent": args.parent,
            "pairs_per_workload": args.pairs,
            "seeds": f"{args.first_seed}-{args.first_seed + args.pairs - 1}, one per pair, "
                     "the same seed on both sides of a pair",
            "order": "alternating: parent first on even pairs, change first on odd pairs",
            "checkouts": "each side ran from its own temporary copy (parent: git archive "
                         "of the parent revision; change: the working tree's files)",
            "run_seconds": args.seconds,
            "statistics": "median and quartiles (linear interpolation) over the runs per "
                          "side; a win is a pair where the change reads better",
            "equal_requests": "peak RSS of requests 0..R-1 of the first seed with every "
                              "outcome kept, R = median request count of the parent's runs",
        },
        "machine": machine,
        "claim": claim_verdict(args.claim, out_workloads) if args.claim else None,
        "workloads": out_workloads,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", default="HEAD", help="revision of the parent side")
    p.add_argument("--out", required=True, help="BENCH_<n>.json to write")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--first-seed", type=int, required=True)
    p.add_argument("--workloads", nargs="+", default=["sudoku", "chip_noise", "avoid"])
    p.add_argument("--seconds", type=float, help="run length (default: BENCHMARK.json)")
    p.add_argument("--claim", help="METRIC:WORKLOAD:RATIO, e.g. steps_per_s:sudoku:1.5")
    p.add_argument("--what", default="perfbench end-to-end metrics of the parent "
                                      "revision and of the working tree")
    args = p.parse_args(argv)
    rev = subprocess.run(["git", "rev-parse", args.parent], cwd=ROOT, check=True,
                         capture_output=True, text=True).stdout.strip()
    args.parent = f"{args.parent} ({rev})"
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = float(bench["run_seconds"])
    if args.pairs < 1:
        p.error("--pairs must be >= 1")
    out = Path(args.out)

    tmp = Path(tempfile.mkdtemp(prefix="bench_pairs_"))
    try:
        sides = {"parent": tmp / "parent", "change": tmp / "change"}
        for side in sides.values():
            side.mkdir()
        export_parent(rev, sides["parent"])
        copy_worktree(sides["change"])
        machine = {"nproc": len(os.sched_getaffinity(0)),
                   "python": platform.python_version(), "numpy": None,
                   "platform": platform.platform(), "cpu": platform.machine()}
        runs: dict[str, list] = {}
        rss: dict[str, dict] = {}

        def save(complete: bool = False) -> None:
            doc = summarise(args, bench, runs, rss, machine)
            doc["complete"] = complete
            out.write_text(json.dumps(doc, indent=1) + "\n")

        for w in args.workloads:
            runs[w] = []
            for i in range(args.pairs):
                seed = args.first_seed + i
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                pair = {"seed": seed, "order": "-".join(order)}
                for side in order:
                    pair[side] = perfbench(sides[side], w, seed, args.seconds)
                    machine["numpy"] = pair[side].get("numpy", machine["numpy"])
                    r = pair[side]
                    print(f"{w} pair {i} seed {seed} {side}: "
                          f"{r.get('error') or round(r['metrics']['steps_per_s'])} "
                          f"({r['wall_s']:.0f} s)", file=sys.stderr, flush=True)
                runs[w].append(pair)
                save()
            counts = [r["parent"]["requests"] for r in runs[w] if "error" not in r["parent"]]
            if counts:
                n = int(statistics.median(counts))
                rss[w] = {"requests": n, "seed": args.first_seed}
                for side in ("parent", "change"):
                    rss[w][side] = equal_count(sides[side], w, args.first_seed, n)
                print(f"{w} equal-count RSS: {rss[w]}", file=sys.stderr, flush=True)
                save()
        save(complete=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(summarise(args, bench, runs, rss, machine)["claim"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())

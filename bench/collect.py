"""Run the benchmark as alternating parent/change pairs and write BENCH_<label>.json.

    python3 bench/collect.py --parent ../parent-checkout --change . --label 1a2b3c4

``--parent`` and ``--change`` are two checkouts (clones or worktrees) of the
repository. For every workload in the change's ``BENCHMARK.json``, pair ``i``
(0 to 9) runs ``perfbench/run.py --seed <i + 1> --trace 0`` once in each
checkout, the parent first in even pairs and the change first in odd ones,
and one more pair with ``--trace 1`` gives the per-layer metrics. Runs are
sequential, so the two sides never share the machine. The file, written into
the change's checkout, holds every run (metrics, gate results, exit code),
each end-to-end metric's median, quartiles and pair wins per side, each
side's failed share of the attempted fits, each side's environment block as
perfbench records it, and both git revisions with a digest of each side's
``src/``. It is rewritten after every run, so a cut-short collection keeps
what ran.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

SIDES = ("parent", "change")
PAIRS = 10          # the fewest alternating pairs a gain may be claimed from
NOT_SOURCE = {"__pycache__", "out"}   # bytecode, and perfbench's run output


def tree_digest(root: Path, parts) -> str:
    """sha256 over the paths and bytes of every source file under ``parts``."""
    h = hashlib.sha256()
    for part in parts:
        base = root / part
        for f in sorted(base.rglob("*")) if base.is_dir() else [base]:
            rel = f.relative_to(root)
            if f.is_file() and not NOT_SOURCE & set(rel.parts):
                h.update(str(rel).encode() + b"\0" + f.read_bytes() + b"\0")
    return h.hexdigest()


def git(root: Path, *args):
    proc = subprocess.run(["git", "-C", str(root), *args], capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def revision(root: Path) -> dict:
    status = git(root, "status", "--porcelain", "--untracked-files=no")
    return {"commit": git(root, "rev-parse", "HEAD"),
            "uncommitted_changes": None if status is None else bool(status),
            "src_sha256": tree_digest(root, ["src"])}


def run_once(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    run = {"workload": workload, "seed": seed, "trace": trace, "returncode": proc.returncode}
    try:
        run.update(json.loads(proc.stdout.strip().splitlines()[-1]))
    except (IndexError, json.JSONDecodeError):
        run["stderr_tail"] = proc.stderr[-2000:]
        return run
    record = root / "perfbench" / "out" / f"{workload}-seed{seed}-trace{trace}" / "result.json"
    full = json.loads(record.read_text())
    run["gates"] = full["gates"]
    run["env"] = full["env"]
    return run


def quartiles(values: list) -> dict:
    if len(values) < 2:
        return {"median": values[0] if values else None, "q1": None, "q3": None, "n": len(values)}
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3, "iqr": q3 - q1, "n": len(values)}


def summarize(spec: dict, runs: list) -> dict:
    """Per end-to-end metric over the complete untraced pairs: each side's
    quartiles, the change's pair wins (ties count for neither side),
    ``worse_by`` (the change's median against the parent's, as a share of
    the parent's, positive when worse), ``within_bound`` (``worse_by`` is at
    most the metric's bound) and ``gain_claimable`` (the change won at
    least 9 in 10 pairs and its median is better by more than the parent's
    inter-quartile range)."""
    pairs = {}
    for run in runs:
        if run["trace"] == 0:
            pairs.setdefault(run["pair"], {})[run["side"]] = run
    out = {}
    for metric in spec["end_to_end"]:
        name, higher = metric["name"], metric["better"] == "higher"
        both = [tuple(p[s]["metrics"][name]["value"] for s in SIDES) for p in pairs.values()
                if len(p) == 2 and all(name in p[s].get("metrics", {}) for s in SIDES)]
        wins = sum((b > a) if higher else (b < a) for a, b in both)
        entry = {"unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
                 "parent": quartiles([a for a, _ in both]),
                 "change": quartiles([b for _, b in both]),
                 "change_wins": wins, "ties": sum(a == b for a, b in both), "pairs": len(both)}
        base, new = entry["parent"]["median"], entry["change"]["median"]
        if base and new is not None:
            worse = (base - new) / base if higher else (new - base) / base
            entry["worse_by"] = worse
            entry["within_bound"] = worse <= metric["bound"]
            iqr = entry["parent"].get("iqr")
            entry["gain_claimable"] = (iqr is not None and wins >= 0.9 * len(both)
                                       and -worse * base > iqr)
        out[name] = entry
    return out


def traced_layers(runs: list) -> dict:
    out = {}
    for run in runs:
        if run["trace"] == 1:
            for name, m in run.get("metrics", {}).items():
                out.setdefault(name, {"unit": m["unit"]})[run["side"]] = m["value"]
    return out


def gate_summary(runs: list) -> dict:
    """Per side: gate name -> [checks, failures] summed over every run."""
    out = {side: {} for side in SIDES}
    for run in runs:
        for name, (checks, failures, _) in run.get("gates", {}).items():
            total = out[run["side"]].setdefault(name, [0, 0])
            total[0] += checks
            total[1] += failures
    return out


def failure_summary(runs: list) -> dict:
    """Per side over the untraced runs: ``attempted`` and ``failed`` summed,
    their ``share`` (failed / max(attempted, 1), as perfbench reports its
    ``failed_ratio``) and ``no_result``, the count of runs that printed no
    result. ``more_failures`` is true when the change's share exceeds the
    parent's."""
    out = {side: {"attempted": 0, "failed": 0, "no_result": 0} for side in SIDES}
    for run in runs:
        if run["trace"] != 0:
            continue
        side = out[run["side"]]
        if "attempted" in run:
            side["attempted"] += run["attempted"]
            side["failed"] += run["failed"]
        else:
            side["no_result"] += 1
    for side in SIDES:
        out[side]["share"] = out[side]["failed"] / max(out[side]["attempted"], 1)
    out["more_failures"] = out["change"]["share"] > out["parent"]["share"]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--label", required=True, help="names the output file BENCH_<label>.json")
    args = parser.parse_args(argv)

    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((roots["change"] / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bench_parts = ["BENCHMARK.json", "perfbench"]
    doc = {
        "label": args.label,
        "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "seconds": seconds, "pairs": PAIRS,
        "revisions": {side: revision(root) for side, root in roots.items()},
        "benchmark_identical": len({tree_digest(r, bench_parts) for r in roots.values()}) == 1,
        "env": {},
        "workloads": {},
    }
    out_path = roots["change"] / f"BENCH_{args.label}.json"

    def save() -> None:
        out_path.write_text(json.dumps(doc, indent=1) + "\n")

    if not doc["benchmark_identical"]:
        print("collect: BENCHMARK.json or perfbench/ differ between the checkouts", file=sys.stderr)
        save()
        return 1
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        entry = doc["workloads"][workload] = {"runs": runs}
        for pair in range(PAIRS + 1):
            trace = int(pair == PAIRS)   # the last pair is the traced one
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for side in order:
                run = run_once(roots[side], workload, pair + 1, seconds, trace)
                run.update(pair=pair, side=side, first=order[0])
                env = run.pop("env", None)
                if env:
                    doc["env"].setdefault(side, env)
                runs.append(run)
                entry.update(end_to_end=summarize(spec, runs), per_layer=traced_layers(runs),
                             gates=gate_summary(runs), failures=failure_summary(runs))
                save()
                print(f"{workload} pair {pair} {side} trace {trace}: exit {run['returncode']}, "
                      f"{json.dumps(run.get('metrics', {}).get('throughput_per_s'))}", flush=True)
    doc["finished_utc"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    save()
    return int(any(run["returncode"] != 0 for w in doc["workloads"].values() for run in w["runs"]))


if __name__ == "__main__":
    sys.exit(main())

"""ctgformer benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload train-small --seed 1 --seconds 35 --trace 0

Run from the root of a checkout. It builds its inputs from ``--seed``,
runs whole fits for about ``--seconds`` of fit time (at least one), runs the
correctness gates and prints a
report; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--trace 0`` reports
the end-to-end metrics of BENCHMARK.json, ``--trace 1`` the per-layer ones from
a run that records spans. ``--tiny`` shrinks every input for the smoke test.
The exit code is 1 when a gate fails and 2 when the sources are missing.
Span files and a full result record land in ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("train-small", "train-wide")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = 1


def pin_threads() -> int:
    """Pin BLAS to one thread before numpy loads. On a shared 2-core host,
    two BLAS threads can stall small matrix products for a whole process."""
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    return BLAS_THREADS


def blas_info() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"name": blas.get("name"), "version": blas.get("version"), "threads": None}
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "lib*openblas*.so*"))
    for lib_path in libs:
        lib = ctypes.CDLL(lib_path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(args, threads: int) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
        "blas_threads_pinned": threads,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test input sizes")
    args = parser.parse_args(argv)

    threads = pin_threads()
    src = ROOT / "src"
    if not (src / "ctgformer" / "__init__.py").is_file():
        print(f"perfbench: no ctgformer sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import ctgformer

    if Path(ctgformer.__file__).resolve().parent != (src / "ctgformer").resolve():
        print(f"perfbench: imported ctgformer from {ctgformer.__file__}, not {src}",
              file=sys.stderr)
        return 2
    import workloads as wl
    from tracing import SpanStats, Tracer

    label = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-tiny" if args.tiny else "")
    out = ROOT / "perfbench" / "out" / label
    work = out / "work"
    shutil.rmtree(out, ignore_errors=True)
    work.mkdir(parents=True)

    env = environment(args, threads)
    tracer, gates = Tracer(enabled=bool(args.trace)), wl.Gates()
    res = wl.run_train(args.workload, args.seed, args.seconds, args.tiny, tracer, work, gates)

    print(f"# ctgformer benchmark: {label}")
    for key in ("python", "numpy", "scipy", "blas", "thread_env", "nproc", "cpu_model",
                "git_commit"):
        print(f"env {key}: {env[key]}")
    for key, value in sorted(res.record.items()):
        if key.endswith("_computed") or key.endswith("digest") or "seed" in key:
            print(f"record {key}: {value}")
    for line in res.report:
        print(line)
    print(f"failed_ratio {res.failed}/{res.attempted} "
          f"= {res.failed / max(res.attempted, 1):.4g} (base: {res.failed_base})")

    metrics = res.metrics
    if args.trace:
        stats = SpanStats(tracer.spans)
        cfg = wl.CONFIGS[args.workload]()[0]
        metrics = wl.per_layer_metrics(stats, cfg) if res.metrics else {}
        tracer.write(out / "spans.jsonl")
        print(f"spans {len(tracer.spans)} written to {out / 'spans.jsonl'}")
        for layer, self_s in sorted(stats.layer_self().items()):
            print(f"self_s {layer} {self_s:.6g} s")
        if res.metrics:
            traced = res.metrics["throughput_per_s"][0]
            print(f"tracing_overhead {res.untraced_rate / traced - 1:+.4%} "
                  f"(untraced {res.untraced_rate:.6g} 1/s vs traced {traced:.6g} 1/s throughput)")
    for name, value, unit_name in ((k, v[0], v[1]) for k, v in metrics.items()):
        print(f"metric {name} {value!r} {unit_name}")
    for name, (checks, failures, detail) in gates.results.items():
        print(f"gate {'FAIL' if failures else 'PASS'} {name} "
              f"({checks - failures}/{checks} checks passed): {detail}")

    correct = gates.passed and bool(metrics)
    result = {"correct": correct, "attempted": res.attempted, "failed": res.failed,
              "metrics": {k: {"value": v[0], "unit": v[1]} for k, v in metrics.items()}}
    (out / "result.json").write_text(json.dumps(
        {**result, "env": env, "record": res.record, "end_to_end": res.metrics,
         "report": res.report, "gates": gates.results}, indent=1, default=str) + "\n")
    shutil.rmtree(work)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""qsilab benchmark: fixed, seeded workloads through the command-line surface.

    python3 qsibench/run.py --workload oracle-sweep --seed 1 --seconds 20 --trace 0

Run from the repository root. The program is used from source (`src/`); a
checkout without it is an error. Each pass of a workload runs its whole op
list in a fresh process (`worker.py`), one op at a time, so the group tables
and other caches start cold in every pass, as they do for every command-line
call. Passes repeat until `--seconds` have elapsed. Every op's output is
checked against `reference.py`, which does not import qsilab.

With `--trace 0` the last line of stdout holds the end-to-end metrics:
median pass wall time, p50/p90 op latency over all ops of all passes, median
import time of `qsilab.cli` over several fresh processes, and median peak
RSS of a pass. With `--trace 1` untraced and traced passes alternate; the
line holds the per-layer metrics (means per traced pass) and the tracing
overhead. A replayable record of the run goes to `qsibench/runs/`.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Fresh processes that only import qsilab.cli, on top of one per pass.
SETUP_PROBES = 5
#: No pass starts after this many seconds, whatever --seconds says.
PASS_START_LIMIT_S = 120.0
#: A run record keeps at most this many spans of its first traced pass.
MAX_RECORDED_SPANS = 20_000


def _worker(*args: str, timeout: float = 170.0) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args[0]} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout)


def _openblas_threads() -> int | None:
    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                                  "numpy.libs", "*openblas*.so*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            if hasattr(lib, fn):
                getter = getattr(lib, fn)
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def _environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _openblas_threads(),
        "thread_env": {k: os.environ.get(k) for k in
                       ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "load": "closed loop, one client, one op at a time",
    }


def _git_commit() -> str | None:
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


def _problems(op: workloads.Op, record: list) -> list[workloads.Problem]:
    _, rc, out, err, exc = record
    if exc is not None:
        return [(workloads.VALUE, f"raised: {exc.strip().splitlines()[-1]}")]
    if rc != 0:
        return [(workloads.VALUE, f"exit code {rc}: {err.strip()[-300:]}")]
    try:
        return op.check(out)
    except (KeyError, ValueError, ZeroDivisionError) as exc:
        return [(workloads.VALUE, f"unreadable output ({exc!r}): {out[:200]!r}")]


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[8]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "qsilab" / "cli.py").is_file():
        print(f"error: no qsilab sources under {SRC}", file=sys.stderr)
        return 2

    workdir = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}-{time.time_ns()}"
    workdir.mkdir(parents=True)
    try:
        wl = workloads.build(args.workload, args.seed, workdir, ROOT)
        ops_path = workdir / "ops.json"
        with open(ops_path, "x", encoding="utf-8") as fh:
            json.dump([[op.call, op.argv] for op in wl.ops], fh)

        _worker("probe", str(SRC))  # warm-up: compiles bytecode, fills the page cache
        setup = [_worker("probe", str(SRC))["import_s"] for _ in range(SETUP_PROBES)]

        schedule = [0, 1] if args.trace else [0]
        passes: list[dict] = []
        started = time.perf_counter()
        while True:
            for traced in schedule:
                remaining = 170.0 - (time.perf_counter() - started)
                res = _worker("pass", str(SRC), str(ops_path), str(traced), timeout=remaining)
                res["trace"] = traced
                passes.append(res)
                setup.append(res["import_s"])
            elapsed = time.perf_counter() - started
            if elapsed >= args.seconds or elapsed >= PASS_START_LIMIT_S:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    op_records = []
    attempted = failed = value_failures = 0
    for k, op in enumerate(wl.ops):
        seen: list[list[str]] = []
        for res in passes:
            found = _problems(op, res["ops"][k])
            attempted += 1
            failed += bool(found)
            value_failures += any(cat == workloads.VALUE for cat, _ in found)
            seen += [list(p) for p in found if list(p) not in seen]
        op_records.append({
            "id": k, "call": op.call, "argv": op.argv,
            "latency_ms": [round(res["ops"][k][0] * 1e3, 4) for res in passes],
            "pass": not seen, "problems": seen,
        })

    plain = [res for res in passes if not res["trace"]]
    latencies_ms = [rec[0] * 1e3 for res in plain for rec in res["ops"]]
    end_to_end = {
        "wall_s": (statistics.median(res["wall_s"] for res in plain), "s"),
        "op_p50_ms": (statistics.median(latencies_ms), "ms"),
        "op_p90_ms": (_p90(latencies_ms), "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (statistics.median(res["peak_rss_mb"] for res in plain), "MB"),
    }
    record = {
        "benchmark": "qsibench",
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "environment": _environment(),
        "qsilab_version": passes[0]["version"], "git_commit": _git_commit(),
        "ops_per_pass": len(wl.ops), "attempted": attempted, "failed": failed,
        "fail_ratio": failed / attempted, "correct": value_failures == 0,
        "setup_samples_s": setup,
        "passes": [{k: res[k] for k in ("trace", "wall_s", "import_s", "peak_rss_mb")}
                   for res in passes],
        "end_to_end": {name: value for name, (value, _) in end_to_end.items()},
        "ops": op_records,
        "instances": wl.files,
    }

    if args.trace:
        traced = [res for res in passes if res["trace"]]
        layers = {key: statistics.fmean(res["layers"][key] for res in traced)
                  for key in traced[0]["layers"]}
        layers["trace.overhead_ratio"] = (
            statistics.median(res["wall_s"] for res in traced) / end_to_end["wall_s"][0])
        metrics = {name: {"value": value, "unit": _layer_unit(name)}
                   for name, value in layers.items()}
        spans = traced[0]["spans"]
        record["layers"] = layers
        record["spans"] = {"fields": traced[0]["span_fields"], "names": traced[0]["span_names"],
                           "dropped": max(0, len(spans) - MAX_RECORDED_SPANS),
                           "rows": spans[:MAX_RECORDED_SPANS]}
    else:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in end_to_end.items()}

    runs = HERE / "runs"
    runs.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    with open(runs / name, "x", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(json.dumps({"correct": value_failures == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())

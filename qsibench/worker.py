"""One fresh process: time `import qsilab.cli`, then optionally run one pass.

    python3 worker.py probe <src-dir>
    python3 worker.py pass <src-dir> <ops.json> <trace 0|1>

Only `sys` and `time` are imported before the timed import, so the import
time covers numpy and everything qsilab pulls in. A pass runs the ops one at
a time, in order, through `qsilab.cli.main(argv)` (or the exported
`qsilab.ps_lower_bound`), capturing stdout and stderr in memory. The result
is one JSON object on stdout.
"""

import sys
import time


def main() -> int:
    mode, src = sys.argv[1], sys.argv[2]
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import qsilab.cli  # noqa: F401  (the import being timed)
    import_s = time.perf_counter() - t0

    import contextlib
    import io
    import json
    import resource
    import traceback

    import qsilab

    result = {"import_s": import_s, "version": getattr(qsilab, "__version__", None)}
    if mode == "pass":
        with open(sys.argv[3], encoding="utf-8") as fh:
            ops = json.load(fh)
        rec = None
        if sys.argv[4] == "1":
            import tracing  # the script's directory is on sys.path

            rec = tracing.install()
        records = []
        first = time.perf_counter()
        for k, (call, argv) in enumerate(ops):
            if rec is not None:
                rec.op = k
            out, err = io.StringIO(), io.StringIO()
            rc, exc = None, None
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    if call == "cli":
                        rc = qsilab.cli.main(argv)
                    else:
                        out.write(repr(qsilab.ps_lower_bound(qsilab.load_instance(argv[0]))))
                        rc = 0
            except SystemExit as stop:  # argparse rejects bad argv this way
                rc = stop.code if isinstance(stop.code, int) else 2
            except Exception:
                exc = traceback.format_exc()
            records.append([time.perf_counter() - start, rc, out.getvalue(), err.getvalue(), exc])
        result["wall_s"] = time.perf_counter() - first
        result["ops"] = records
        if rec is not None:
            result["layers"] = rec.summary()
            result["span_fields"] = list(tracing.SPAN_FIELDS)
            result["span_names"] = rec.names
            result["spans"] = rec.spans
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    sys.stdout.write(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run one paritykit CLI request in a fresh interpreter.

Reads one JSON object on stdin: {"argv": [...], "trace": bool, "request": id,
"spans": path or null}.  Imports paritykit.cli from the checkout's src/ (the set-up time),
then times one cli.run(argv) call with stdout and stderr captured, and prints
one JSON object: exit code, captured output, both times and peak RSS.  With
tracing on, spans.py wraps the public functions before the call, the spans
are written to the given path when the call returns, and their per-function
summary is included.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> None:
    req = json.load(sys.stdin)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    t0 = time.perf_counter()
    import paritykit.cli

    setup_s = time.perf_counter() - t0
    tracer = None
    if req["trace"]:
        import spans

        tracer = spans.install(req["request"])
    out, err = io.StringIO(), io.StringIO()
    crash = None
    code = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t1 = time.perf_counter()
        try:
            code = paritykit.cli.run(req["argv"])
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            crash = traceback.format_exc()
        run_s = time.perf_counter() - t1
    stdout = out.getvalue()
    result = {
        "code": code,
        "stdout": stdout,
        "stderr": err.getvalue(),
        "crash": crash,
        "setup_s": setup_s,
        "run_s": run_s,
        "output_bytes": len(stdout.encode()),
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "python": sys.version.split()[0],
        "numpy": getattr(sys.modules.get("numpy"), "__version__", None),
    }
    if tracer is not None:
        tracer.write(req["spans"])
        result["layers"] = tracer.summary()
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main()

"""One measured run of a benchmark batch, in a fresh interpreter.

Usage: python child.py JOB.json

The job names the checkout root, the batch of CLI argument lists, whether
to trace, and where to write the result. The child imports ``starsalem``
from the checkout's ``src`` (and refuses any other copy), runs every argument
list through ``starsalem.cli.main`` with stdout captured, and writes a JSON
result: the monotonic time at which ``import starsalem.cli`` returned, the
summed ``main`` time, CPU seconds and peak RSS of the batch, and each call's
exit code, stdout and exception.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

GUARD_EXIT = 3


def main() -> int:
    with open(sys.argv[1]) as fh:
        job = json.load(fh)
    src = os.path.join(job["root"], "src")
    sys.path.insert(0, src)
    import starsalem.cli as cli

    imported_at = time.monotonic()
    import starsalem

    expected = os.path.realpath(os.path.join(src, "starsalem", "__init__.py"))
    if os.path.realpath(starsalem.__file__) != expected:
        print(f"child: imported starsalem from {starsalem.__file__}, expected {expected}",
              file=sys.stderr)
        return GUARD_EXIT

    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    calls = []
    wall = 0.0
    before = resource.getrusage(resource.RUSAGE_SELF)
    for argv in job["batch"]:
        out = io.StringIO()
        rc, error = None, None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception:
            error = traceback.format_exc()
        wall += time.perf_counter() - t0
        calls.append({"argv": argv, "rc": rc, "stdout": out.getvalue(), "error": error})
    after = resource.getrusage(resource.RUSAGE_SELF)

    result = {
        "imported_at": imported_at,
        "wall_s": wall,
        "cpu_s": (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime),
        "peak_rss_mb": after.ru_maxrss / 1024.0,
        "calls": calls,
    }
    if job.get("provenance"):
        import numpy

        blas = numpy.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
        result["provenance"] = {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "openblas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        }
    if tracer is not None:
        tracer.dump(job["spans"])
    with open(job["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

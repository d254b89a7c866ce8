"""Benchmark of the starsalem command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The workloads are defined in workloads.py.
After one untimed warm-up interpreter (which compiles the bytecode and checks
the import guard), the benchmark runs batches of the workload, each in a
fresh interpreter so that every process-wide cache starts empty, until S
seconds have passed and at least MIN_BATCHES batches have run. Every output
is checked against reference.json.

With --trace 0 it reports, as medians over the batches:
  setup_s      child-process start until ``import starsalem.cli`` returns
  wall_s       summed time inside ``cli.main`` for the batch, stdout captured
  cpu_s        user + system CPU seconds of the child during the batch
  peak_rss_mb  peak resident memory of the child
and prints fail_ratio = failed / attempted operations.

With --trace 1 every batch runs twice, untraced and traced (alternating which
goes first); tracer.py supplies per-layer calls, self times and counters as
means per traced batch (so that rare events still show), trace.overhead_s is
the traced minus the untraced median wall_s, and any stdout byte that tracing
changes fails the operations of that call.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics. The exit code is 0
when the benchmark ran (even if outputs were wrong) and 2 when it could not
run at all, for instance outside a starsalem checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

MIN_BATCHES = 3
RUN_BUDGET_S = 150.0  # the whole run must end well inside 180 s
GUARD_EXIT = 3  # child.py's exit code when it imported the wrong starsalem
NPROC = len(os.sched_getaffinity(0))
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"))


class HarnessError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def git_sha(root: Path) -> str | None:
    """HEAD of the checkout's own .git, read without running git."""
    git = root / ".git"
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


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "starsalem").rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


class Runner:
    def __init__(self, workdir: Path, deadline: float) -> None:
        self.workdir = workdir
        self.deadline = deadline
        self.count = 0
        self.env = dict(os.environ, OPENBLAS_NUM_THREADS=str(NPROC))

    def child(self, batch: list[list[str]], trace: bool, provenance: bool = False) -> dict:
        """Run one batch in a fresh interpreter; returns its result dict, or
        one with an ``error`` key when the child died or ran out of time."""
        self.count += 1
        stem = self.workdir / f"child{self.count}"
        job = {
            "root": str(ROOT),
            "batch": batch,
            "trace": trace,
            "provenance": provenance,
            "result": f"{stem}.result.json",
            "spans": f"{stem}.spans.npz",
        }
        Path(f"{stem}.job.json").write_text(json.dumps(job))
        with open(f"{stem}.stderr", "w") as err:
            started = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "child.py"), f"{stem}.job.json"],
                stdin=subprocess.DEVNULL, stdout=err, stderr=err, env=self.env, cwd=ROOT,
            )
            try:
                rc = proc.wait(timeout=max(self.deadline - time.monotonic(), 1.0))
            except subprocess.TimeoutExpired:
                rc = None
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        stderr = Path(f"{stem}.stderr").read_text(errors="replace")
        if rc == GUARD_EXIT:
            raise HarnessError(stderr.strip())
        if rc != 0:
            why = "timed out" if rc is None else f"exited with code {rc}"
            return {"error": f"child {why}: {stderr.strip()[-2000:]}"}
        result = json.loads(Path(job["result"]).read_text())
        result["setup_s"] = result["imported_at"] - started
        if trace:
            from tracer import layer_metrics

            result["layers"] = layer_metrics(job["spans"])
        return result


def check_batch(workload, batch, result, refs) -> tuple[int, int, list[str]]:
    attempted = failed = 0
    messages: list[str] = []
    calls = result.get("calls") or [
        {"argv": argv, "rc": None, "error": result["error"]} for argv in batch
    ]
    for argv, call in zip(batch, calls):
        try:
            a, f, m = workload.check(argv, call, refs)
        except Exception as exc:  # an output the check did not foresee is wrong
            a, f, m = workload.check(argv, {"rc": None, "error": repr(exc)}, refs)
        attempted, failed, messages = attempted + a, failed + f, messages + m
    return attempted, failed, messages


def summary(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def run(args) -> dict:
    if not (ROOT / "src" / "starsalem" / "__init__.py").is_file():
        raise HarnessError(f"no starsalem source under {ROOT / 'src'}; run from a checkout")
    workload = WORKLOADS[args.workload]
    refs = json.loads((HERE / "reference.json").read_text())
    rng = random.Random(f"{args.workload}:{args.seed}")
    batches = workload.batches(rng, refs)

    (HERE / ".work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=HERE / ".work"))
    try:
        runner = Runner(workdir, time.monotonic() + RUN_BUDGET_S)
        warm = runner.child([], trace=False, provenance=True)
        if "error" in warm:
            raise HarnessError(f"warm-up interpreter failed: {warm['error']}")
        provenance = {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "git_sha": git_sha(ROOT),
            "src_sha256": source_digest(ROOT),
            **warm["provenance"],
            "nproc": NPROC,
        }

        untraced, traced = [], []
        attempted = failed = 0
        messages: list[str] = []
        start = time.monotonic()
        while len(untraced) < MIN_BATCHES or time.monotonic() - start < args.seconds:
            if time.monotonic() > runner.deadline:
                break
            batch = next(batches)
            if not args.trace:
                pair = {False: runner.child(batch, trace=False)}
            else:
                order = (False, True) if len(untraced) % 2 == 0 else (True, False)
                pair = {t: runner.child(batch, trace=t) for t in order}
            for result in pair.values():
                a, f, m = check_batch(workload, batch, result, refs)
                attempted, failed, messages = attempted + a, failed + f, messages + m
            if args.trace and "error" not in pair[True] and "error" not in pair[False]:
                for argv, plain, other in zip(batch, pair[False]["calls"], pair[True]["calls"]):
                    if plain["stdout"] != other["stdout"]:
                        a, _, _ = workload.check(argv, plain, refs)
                        failed += a
                        messages.append(f"tracing changed stdout of {' '.join(argv)}")
            untraced.append(pair[False])
            if args.trace:
                traced.append(pair[True])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            (HERE / ".work").rmdir()
        except OSError:
            pass

    plain = [r for r in untraced if "error" not in r]
    with_trace = [r for r in traced if "error" not in r]
    if not plain or (args.trace and not with_trace):
        raise HarnessError("no batch ran to completion:\n" + "\n".join(messages[:5]))
    provenance["batches"] = len(untraced)

    metrics: dict[str, dict] = {}
    lines = [f"provenance {json.dumps(provenance, sort_keys=True)}"]
    if not args.trace:
        for name, unit in END_TO_END:
            med, q1, q3 = summary([r[name] for r in plain])
            metrics[name] = {"value": med, "unit": unit}
            lines.append(f"{args.workload} {name:<12} median {med:.6g} {unit}"
                         f"  q1 {q1:.6g}  q3 {q3:.6g}  n={len(plain)}")
    else:
        from tracer import metric_units

        for name, unit in metric_units().items():
            mean = statistics.fmean(r["layers"][name] for r in with_trace)
            metrics[name] = {"value": mean, "unit": unit}
            lines.append(f"{args.workload} {name:<44} {mean:.6g} {unit}"
                         f"  (mean per batch, n={len(with_trace)})")
        overhead = (statistics.median(r["wall_s"] for r in with_trace)
                    - statistics.median(r["wall_s"] for r in plain))
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        lines.append(f"{args.workload} {'trace.overhead_s':<44} {overhead:.6g} s"
                     f"  (traced minus untraced median wall_s)")
    ratio = failed / attempted if attempted else 1.0
    lines.append(f"{args.workload} fail_ratio   {ratio:.6g} ratio"
                 f"  ({failed} failed of {attempted} operations)")
    for message in messages[:20]:
        print(f"check: {message}", file=sys.stderr)
    print("\n".join(lines))
    return {
        "correct": failed == 0 and attempted > 0,
        "attempted": max(attempted, 1),
        "failed": failed if attempted else 1,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args)
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

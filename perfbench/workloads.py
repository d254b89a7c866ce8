"""Seeded workloads of the starsalem benchmark and the checks of their outputs.

A workload turns a seeded random generator into an endless stream of
batches; a batch is a list of CLI argument lists that one fresh interpreter
runs through ``starsalem.cli.main`` (see child.py). Every input a workload
can draw has an entry in reference.json, written once by make_reference.py,
so deciding whether an output is correct never asks the program under test.

A check returns ``(attempted, failed, messages)``. An operation is one
checked item: a grid triple, a factored tree, a convergence row, or the
block of scan records for one ``a1``. An exception or a nonzero exit code
fails every operation of its call.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from dataclasses import dataclass
from typing import Callable

GRID_WIDTH = 13
GRID_OFFSETS = (6, 7, 8)

# deg R_T = vertex count = a0 + a1 + a2 - 2; every candidate has degree 1048,
# T(20, 30, 1000) among them: past degree ~1024 the Aberth residual guard overflows
FACTOR_VERTICES = 1048
FACTOR_A0 = (2, 3, 5, 8, 13, 20)
FACTOR_A1 = (30, 40, 50)
FACTOR_DIGITS = 30
LAMBDA_TOL = 1e-9

PRECISION_A0 = (2, 3)
PRECISION_ETA = (1, 2)
# a batch takes a1 = x and 50 - x: cost grows about linearly with a1, so every
# batch costs about the same whatever x the seed draws (within 3% at HEAD)
PRECISION_A1_LOW = range(14, 25)
PRECISION_A1_SUM = 50
PRECISION_DIGITS = 1000

SCAN_A0 = 2
SCAN_ETA = 1
SCAN_K_MAX = 420 * (SCAN_ETA + SCAN_A0 - 1)  # what --full-bound scans
SCAN_SPAN = 36
SCAN_LO = range(4, 21)

SCAN_HEADER = "a0,eta,a1,k,a1_mod_k,divides"
CONVERGE_HEADER = ["a_arms", "tau", "limit", "gap"]


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def factor_candidates() -> list[tuple[int, int, int]]:
    return [
        (a0, a1, FACTOR_VERTICES + 2 - a0 - a1) for a0 in FACTOR_A0 for a1 in FACTOR_A1
    ]


# ----------------------------------------------------------------------
# argv construction and parsing
# ----------------------------------------------------------------------

def grid_argv(lo: int, hi: int) -> list[str]:
    box = f"{lo}:{hi}"
    return ["grid", "--a0", box, "--a1", box, "--a2", box]


def factor_argv(arms: tuple[int, ...], digits: int = FACTOR_DIGITS) -> list[str]:
    return ["factor", *map(str, arms), "--digits", str(digits), "--json"]


def converge_argv(a0: int, eta: int, a1s: list[int], digits: int) -> list[str]:
    return [
        "converge", "mbonacci", "--a0", str(a0), "--eta", str(eta),
        "--a1", ",".join(map(str, a1s)), "--digits", str(digits),
    ]


def scan_argv(a0: int, eta: int, lo: int, hi: int, k_max: int) -> list[str]:
    argv = ["scan", "--a0", str(a0), "--eta", str(eta), "--a1", f"{lo}:{hi}"]
    if k_max == 420 * (eta + a0 - 1):
        return argv + ["--full-bound"]
    return argv + ["--k-max", str(k_max)]


def _opt(argv: list[str], flag: str) -> str:
    return argv[argv.index(flag) + 1]


def grid_key(argv: list[str]) -> str:
    return _opt(argv, "--a0")


def factor_key(argv: list[str]) -> str:
    arms = [a for a in argv[1:argv.index("--digits")]]
    return ",".join(arms + [_opt(argv, "--digits")])


def converge_args(argv: list[str]) -> tuple[int, int, list[int], int]:
    return (
        int(_opt(argv, "--a0")),
        int(_opt(argv, "--eta")),
        [int(v) for v in _opt(argv, "--a1").split(",")],
        int(_opt(argv, "--digits")),
    )


def scan_args(argv: list[str]) -> tuple[int, int, range, int]:
    a0, eta = int(_opt(argv, "--a0")), int(_opt(argv, "--eta"))
    lo, hi = (int(v) for v in _opt(argv, "--a1").split(":"))
    k_max = 420 * (eta + a0 - 1) if "--full-bound" in argv else int(_opt(argv, "--k-max"))
    return a0, eta, range(lo, hi + 1), k_max


def row_key(*parts: int) -> str:
    return ",".join(map(str, parts))


# ----------------------------------------------------------------------
# seeded batch streams
# ----------------------------------------------------------------------

def _cycle(rng, items):
    """Endless walk through ``items``, reshuffled on every pass, so that a
    run of any length draws every item about equally often."""
    items = list(items)
    while True:
        rng.shuffle(items)
        yield from items


def grid_batches(rng, refs):
    for lo in _cycle(rng, GRID_OFFSETS):
        yield [grid_argv(lo, lo + GRID_WIDTH)]


def factor_batches(rng, refs):
    usable = [a for a in factor_candidates() if factor_key(factor_argv(a)) in refs["factor"]]
    for arms in _cycle(rng, usable):
        yield [factor_argv(arms)]


def precision_batches(rng, refs):
    combos = [(a0, eta) for a0 in PRECISION_A0 for eta in PRECISION_ETA]
    for a0, eta in _cycle(rng, combos):
        x = rng.choice(PRECISION_A1_LOW)
        a1s = [x, PRECISION_A1_SUM - x]
        yield [converge_argv(a0, eta, a1s, PRECISION_DIGITS)]


def scan_batches(rng, refs):
    for lo in _cycle(rng, SCAN_LO):
        yield [scan_argv(SCAN_A0, SCAN_ETA, lo, lo + SCAN_SPAN, SCAN_K_MAX)]


# inputs small enough for the self-test; reference.json covers them too
TINY_BATCHES = {
    "grid": [grid_argv(2, 6)],
    "factor_large": [factor_argv((3, 4, 9)), factor_argv((2, 3, 7))],
    "precision": [converge_argv(2, 1, [5, 6], 50)],
    "scan": [scan_argv(2, 1, 4, 8, 24)],
}


# ----------------------------------------------------------------------
# checks
# ----------------------------------------------------------------------

def _crashed(call: dict) -> str | None:
    if call.get("error"):
        return "raised " + call["error"].strip().splitlines()[-1]
    if call.get("rc") != 0:
        return f"exit code {call.get('rc')}"
    return None


def check_grid(argv, call, refs):
    ref = refs["grid"].get(grid_key(argv))
    if ref is None:
        return 1, 1, [f"no reference for {argv}"]
    ops = ref["triples"]
    crash = _crashed(call)
    if crash:
        return ops, ops, [crash]
    try:
        got = json.loads(call["stdout"])
    except json.JSONDecodeError as exc:
        return ops, ops, [f"unparsable JSON: {exc}"]
    if not isinstance(got, dict) or got.get("triples") != ops:
        return ops, ops, [f"grid {grid_key(argv)}: not a summary of {ops} triples"]
    failures = got.get("failures")
    if not isinstance(failures, list):
        return ops, ops, ["grid: no failures list in the summary"]
    bad_arms = {json.dumps(f) for f in failures}
    fails = sum(v for k, v in got.items() if k.endswith("_fail"))
    off = sum(abs(got.get(k, 0) - v) for k, v in ref.items() if k.endswith("_pass"))
    failed = min(ops, max(len(bad_arms), fails, off))
    msgs = []
    if failed:
        msgs.append(f"grid {grid_key(argv)}: {len(bad_arms)} failing triples, "
                    f"{fails} failed checks, pass counts off by {off}")
    return ops, failed, msgs


def check_factor(argv, call, refs):
    key = factor_key(argv)
    ref = refs["factor"].get(key)
    if ref is None:
        return 1, 1, [f"no reference for {argv}"]
    crash = _crashed(call)
    if crash:
        return 1, 1, [f"factor {key}: {crash}"]
    try:
        doc = json.loads(call["stdout"])
        cert = doc["certificate"] or {}
        got = {
            "classification": doc["classification"],
            "cyclotomic": doc["cyclotomic"],
            "salem_sha256": digest(json.dumps(doc["salem_coeffs"])),
            "tau": cert.get("tau"),
        }
        lam = float(cert["lambda"]) if cert.get("lambda") is not None else None
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        return 1, 1, [f"factor {key}: malformed output ({exc!r})"]
    wrong = [k for k, v in got.items() if v != ref[k]]
    if (lam is None) != (ref["lambda"] is None) or (
        lam is not None and not abs(lam - ref["lambda"]) <= LAMBDA_TOL
    ):
        wrong.append("lambda")
    if wrong:
        return 1, 1, [f"factor {key}: {', '.join(wrong)} differ from the reference"]
    return 1, 0, []


def check_precision(argv, call, refs):
    a0, eta, a1s, digits = converge_args(argv)
    ops = len(a1s)
    crash = _crashed(call)
    if crash:
        return ops, ops, [crash]
    rows = list(csv.reader(io.StringIO(call["stdout"])))
    if not rows or rows[0] != CONVERGE_HEADER:
        return ops, ops, ["converge: missing or wrong CSV header"]
    limit_ref = refs["precision"]["limit"].get(row_key(a0, digits))
    seen: dict[int, list[str]] = {}
    extra = 0
    for row in rows[1:]:
        try:
            a1 = int(row[0].split()[1])
        except (IndexError, ValueError):
            extra += 1
            continue
        if a1 in seen or a1 not in a1s:
            extra += 1
        seen[a1] = row
    failed, msgs = 0, []
    for a1 in a1s:
        ref = refs["precision"]["rows"].get(row_key(a0, eta, a1, digits))
        row = seen.get(a1)
        ok = (
            ref is not None
            and row is not None
            and len(row) == 4
            and row[0] == f"{a0} {a1} {a1 + eta}"
            and digest(row[1]) == ref["tau_sha256"]
            and digest(row[2]) == limit_ref
            and digest(row[3]) == ref["gap_sha256"]
        )
        if not ok:
            failed += 1
            msgs.append(f"converge T({a0},{a1},{a1 + eta}) digits={digits}: "
                        "row missing or differs from the reference")
    if extra:
        msgs.append(f"converge: {extra} unexpected rows")
    return ops, min(ops, failed + extra), msgs


def check_scan(argv, call, refs):
    a0, eta, a1_range, k_max = scan_args(argv)
    ops = len(a1_range)
    crash = _crashed(call)
    if crash:
        return ops, ops, [crash]
    lines = call["stdout"].split("\n")
    if lines[0] != SCAN_HEADER or lines[-1] != "":
        return ops, ops, ["scan: wrong header or missing final newline"]
    blocks: dict[int, list[str]] = {}
    order: list[int] = []
    extra = 0
    for line in lines[1:-1]:
        fields = line.split(",")
        try:
            a1 = int(fields[2])
        except (IndexError, ValueError):
            extra += 1
            continue
        if a1 not in blocks:
            order.append(a1)
        blocks.setdefault(a1, []).append(line)
    failed, msgs = 0, []
    for a1 in a1_range:
        ref = refs["scan"].get(row_key(a0, eta, k_max, a1))
        block = blocks.get(a1)
        if ref is None or block is None or digest("\n".join(block) + "\n") != ref:
            failed += 1
            msgs.append(f"scan a1={a1}: record block differs from the reference")
    if order != list(a1_range):
        extra += 1
        msgs.append("scan: record blocks out of order or not in the requested range")
    return ops, min(ops, failed + extra), msgs


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    batches: Callable  # (rng, refs) -> endless iterator of batches
    check: Callable  # (argv, call, refs) -> (attempted, failed, messages)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "grid",
            "364 small trees (degree <= 58) through every certified check: "
            "sieve, power iteration, 15-digit dominant_root",
            grid_batches,
            check_grid,
        ),
        Workload(
            "factor_large",
            "degree-1048 trees: order caps near 4e5, O(n^2) Aberth and a "
            "1048x1048 adjacency matrix, the far end of the degree axis",
            factor_batches,
            check_factor,
        ),
        Workload(
            "precision",
            "1000-digit m-bonacci convergence: exact rational Newton, bisection "
            "and big-integer sign_at; bypasses sieve, spectral and Aberth",
            precision_batches,
            check_precision,
        ),
        Workload(
            "scan",
            "full-bound periodicity scan (k <= 840): the only divides_coxeter "
            "and Phi_k table load, and a 480 KB CSV through cli",
            scan_batches,
            check_scan,
        ),
    )
}

"""Write perfbench/reference.json: the expected output of every input the
workloads can draw, plus the self-test inputs.

    python3 perfbench/make_reference.py

Run it once per intended change of the program's answers, never to make a
failing benchmark pass. The values come from the program itself and are
cross-checked against independent oracles that share no code with it:
R_T is rebuilt from the arm lengths with sympy, tau and the m-bonacci limits
are recomputed with mpmath Newton iteration at extra precision, the
factorization is multiplied back with sympy's cyclotomic polynomials, and
lambda is compared with numpy.linalg.eigvalsh of the adjacency matrix.
Trees on which ``factor`` raises are left out of the factor_large catalogue
and listed under ``factor_excluded`` with the error.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import sys
from pathlib import Path

import mpmath
import numpy as np
import sympy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from run import git_sha, source_digest  # noqa: E402
import workloads as W  # noqa: E402
from starsalem import cli  # noqa: E402

Z = sympy.Symbol("z")


def call(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"{argv} exited with {rc}")
    return out.getvalue()


def coxeter_oracle(arms: tuple[int, ...]) -> sympy.Poly:
    """R_T = P / (z-1)^(r+1) with P = prod(z^a - 1)(z + 1)
    - z sum_i (z^(a_i - 1) - 1) prod_{j != i} (z^a_j - 1)."""
    xn1 = [sympy.Poly(Z**a - 1, Z) for a in arms]
    prod_all = sympy.Poly(1, Z)
    for p in xn1:
        prod_all *= p
    acc = sympy.Poly(0, Z)
    for i, a in enumerate(arms):
        term = sympy.Poly(Z ** (a - 1) - 1, Z)
        for j, p in enumerate(xn1):
            if j != i:
                term *= p
        acc += term
    p_cleared = prod_all * sympy.Poly(Z + 1, Z) - sympy.Poly(Z, Z) * acc
    q, r = sympy.div(p_cleared, sympy.Poly((Z - 1) ** len(arms), Z))
    assert r.is_zero, arms
    return q


def mp_root_above_one(coeffs_high_first: list[int], start, dps: int):
    """Newton iteration from ``start``, then a sign change across
    root +- 10^-(dps-20) proves that a root lies that close."""
    with mpmath.workdps(dps):
        x = mpmath.mpf(start)
        for _ in range(100):
            fx, dfx = mpmath.polyval(coeffs_high_first, x, derivative=True)
            step = fx / dfx
            x -= step
            if abs(step) < mpmath.mpf(10) ** (10 - dps):
                break
        eps = mpmath.mpf(10) ** (20 - dps)
        lo, hi = (mpmath.polyval(coeffs_high_first, x + d) for d in (-eps, eps))
        assert x > 1 and lo * hi < 0, (start, x)
        return x


def mp_decimal(x, digits: int) -> str:
    """Round-half-up fixed-point string, the format of fraction_to_decimal."""
    with mpmath.workdps(digits + 40):
        units = int(mpmath.floor(abs(x) * mpmath.mpf(10) ** digits + mpmath.mpf(1) / 2))
    sign = "-" if x < 0 else ""
    return f"{sign}{units // 10**digits}.{str(units % 10**digits).zfill(digits)}"


def lambda_oracle(arms: tuple[int, ...]) -> float:
    n = 1 + sum(a - 1 for a in arms)
    adj = np.zeros((n, n))
    idx = 1
    for a in arms:
        prev = 0
        for _ in range(a - 1):
            adj[prev, idx] = adj[idx, prev] = 1.0
            prev, idx = idx, idx + 1
    return float(np.linalg.eigvalsh(adj)[-1])


# ----------------------------------------------------------------------

def grid_refs() -> dict:
    boxes = [(lo, lo + W.GRID_WIDTH) for lo in W.GRID_OFFSETS] + [(2, 6)]
    out = {}
    for lo, hi in boxes:
        summary = json.loads(call(W.grid_argv(lo, hi)))
        fails = {k: v for k, v in summary.items() if k.endswith("_fail") and v}
        if fails or summary["failures"]:
            raise SystemExit(f"grid {lo}:{hi} fails at this commit: {fails}")
        del summary["failures"]
        out[f"{lo}:{hi}"] = summary
        print(f"grid {lo}:{hi}: {summary['triples']} triples", flush=True)
    return out


def factor_refs() -> tuple[dict, dict]:
    trees = W.factor_candidates() + [(2, 3, 7), (3, 4, 9)]
    refs, excluded = {}, {}
    for arms in trees:
        argv = W.factor_argv(arms)
        try:
            doc = json.loads(call(argv))
        except Exception as exc:  # record the defect, leave the tree out
            excluded[",".join(map(str, arms))] = f"{type(exc).__name__}: {str(exc)[:80]}"
            print(f"factor {arms}: excluded ({type(exc).__name__})", flush=True)
            continue
        cert = doc["certificate"]
        ref = {
            "classification": doc["classification"],
            "cyclotomic": doc["cyclotomic"],
            "salem_sha256": W.digest(json.dumps(doc["salem_coeffs"])),
            "tau": cert["tau"] if cert else None,
            "lambda": float(cert["lambda"]) if cert else None,
        }
        # oracle: prod Phi_k^m * Salem factor == R_T
        product = sympy.Poly(list(reversed([int(c) for c in doc["salem_coeffs"]])), Z)
        for item in doc["cyclotomic"]:
            product *= sympy.Poly(sympy.cyclotomic_poly(item["order"], Z), Z) ** item["multiplicity"]
        assert product == coxeter_oracle(arms), arms
        if cert:
            lam = lambda_oracle(arms)
            assert abs(lam - ref["lambda"]) <= W.LAMBDA_TOL, (arms, lam, ref["lambda"])
            salem_high_first = [int(c) for c in reversed(doc["salem_coeffs"])]
            tau = mp_root_above_one(salem_high_first, cert["tau"][:20], W.FACTOR_DIGITS + 60)
            assert mp_decimal(tau, W.FACTOR_DIGITS) == cert["tau"], arms
            with mpmath.workdps(30):
                bridge = float(mpmath.sqrt(tau) + 1 / mpmath.sqrt(tau))
            assert abs(bridge - lam) <= W.LAMBDA_TOL, (arms, bridge, lam)
        refs[W.factor_key(argv)] = ref
        print(f"factor {arms}: {ref['classification']}, tau {ref['tau']}", flush=True)
    return refs, excluded


def precision_refs() -> dict:
    jobs = [
        (a0, eta, list(range(10, 41)), W.PRECISION_DIGITS)
        for a0 in W.PRECISION_A0 for eta in W.PRECISION_ETA
    ] + [(2, 1, [5, 6], 50)]
    limits, rows = {}, {}
    for a0, eta, a1s, digits in jobs:
        text = call(W.converge_argv(a0, eta, a1s, digits))
        parsed = list(csv.reader(io.StringIO(text)))
        assert parsed[0] == W.CONVERGE_HEADER
        dps = digits + 60
        limit = mp_root_above_one([1] + [-1] * a0, 2 - 0.5**a0, dps)
        limit_str = mp_decimal(limit, digits)
        for (arms, tau_str, limit_got, gap_str), a1 in zip(parsed[1:], a1s, strict=True):
            assert arms == f"{a0} {a1} {a1 + eta}" and limit_got == limit_str, (a0, a1)
            rt = coxeter_oracle((a0, a1, a1 + eta))
            tau = mp_root_above_one([int(c) for c in rt.all_coeffs()], tau_str[:30], dps)
            assert mp_decimal(tau, digits) == tau_str, (a0, eta, a1)
            with mpmath.workdps(dps):
                assert mp_decimal(abs(tau - limit), digits) == gap_str, (a0, eta, a1)
            rows[W.row_key(a0, eta, a1, digits)] = {
                "tau_head": tau_str[:42],
                "tau_sha256": W.digest(tau_str),
                "gap_sha256": W.digest(gap_str),
            }
        limits[W.row_key(a0, digits)] = W.digest(limit_str)
        print(f"precision a0={a0} eta={eta} digits={digits}: {len(a1s)} rows", flush=True)
    return {"limit": limits, "rows": rows}


def scan_refs() -> dict:
    jobs = [
        (W.SCAN_A0, W.SCAN_ETA, W.SCAN_LO[0], W.SCAN_LO[-1] + W.SCAN_SPAN, W.SCAN_K_MAX),
        (2, 1, 4, 8, 24),
    ]
    out = {}
    for a0, eta, lo, hi, k_max in jobs:
        lines = call(W.scan_argv(a0, eta, lo, hi, k_max)).split("\n")
        assert lines[0] == W.SCAN_HEADER and lines[-1] == ""
        blocks: dict[int, list[str]] = {}
        for line in lines[1:-1]:
            blocks.setdefault(int(line.split(",")[2]), []).append(line)
        assert sorted(blocks) == list(range(lo, hi + 1))
        for a1, block in blocks.items():
            assert len(block) == k_max
            out[W.row_key(a0, eta, k_max, a1)] = W.digest("\n".join(block) + "\n")
        # oracle spot check: sympy remainder by Phi_k at the ends of the range
        for a1 in (lo, hi):
            rt = coxeter_oracle((a0, a1, a1 + eta))
            for line in blocks[a1]:
                k, divides = int(line.split(",")[3]), line.split(",")[5]
                if k <= 2 * rt.degree():
                    rem = sympy.rem(rt, sympy.Poly(sympy.cyclotomic_poly(k, Z), Z))
                    assert rem.is_zero == (divides == "1"), (a1, k)
        print(f"scan {lo}:{hi} k<={k_max}: {len(blocks)} blocks", flush=True)
    return out


def main() -> int:
    factor, excluded = factor_refs()
    refs = {
        "program": {"git_sha": git_sha(ROOT), "src_sha256": source_digest(ROOT)},
        "grid": grid_refs(),
        "factor": factor,
        "factor_excluded": excluded,
        "precision": precision_refs(),
        "scan": scan_refs(),
    }
    (HERE / "reference.json").write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

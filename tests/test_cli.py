import csv
import hashlib
import io
import itertools
import json
import math
import os
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import starsalem.cli as cli
import starsalem.factorize as factorize
from starsalem import IntPoly
from starsalem.cli import main

from oracles import dyadic, trace_root_moduli, trace_signs, tree_separators


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_poly_text(capsys):
    rc, out, err = run(capsys, "poly", "2", "3", "7")
    assert rc == 0
    assert "degree 10" in out
    assert "Q block" in out
    assert err == ""


def test_poly_two_arms(capsys):
    rc, out, _ = run(capsys, "poly", "2", "3")
    assert rc == 0
    assert "degree 4" in out  # path on 5 vertices... R_T degree = vertex count


def test_poly_warns_outside_hypotheses(capsys):
    rc, out, err = run(capsys, "poly", "3", "3", "5")
    assert rc == 0
    assert err == (
        "warning: two arms have the same length; "
        "the Q/R/S blocks and the paper's order bound do not apply\n"
    )
    assert "Q block" not in out
    assert "coxeter polynomial" in out


def test_poly_rejects_bad_arms():
    with pytest.raises(SystemExit) as exc:
        main(["poly", "2", "1", "5"])
    assert exc.value.code == 2


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 2


def test_factor_json_lehmer(capsys):
    rc, out, _ = run(capsys, "factor", "2", "3", "7", "--json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["classification"] == "Salem"
    assert doc["salem_degree"] == 10
    assert doc["order_bound"] == 2100
    assert doc["unramified"] is True
    assert doc["certificate"]["tau"].startswith("1.176280818")
    # a decimal string with --digits places, not a float repr
    assert doc["certificate"]["lambda"] == "2.006593618346016732650515917682"
    assert set(doc["certificate"]) == {"tau", "lambda", "bracket"}
    assert doc["salem_coeffs"][0] == "1"
    # canonical JSON: parse/re-serialize round-trips byte-identically
    blob = json.dumps(doc, sort_keys=True, separators=(",", ": "), indent=1)
    assert json.dumps(json.loads(blob), sort_keys=True, separators=(",", ": "), indent=1) == blob


def test_factor_cyclotomic_only(capsys):
    rc, out, _ = run(capsys, "factor", "2", "3", "5", "--json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["classification"] == "CyclotomicOnly"
    assert doc["certificate"] is None
    assert doc["cyclotomic"] == [{"order": 30, "multiplicity": 1}]


def test_factor_excluded_json_schema(capsys):
    rc, out, _ = run(capsys, "factor", "2", "3", "4", "--json")
    assert rc == 0
    doc = json.loads(out)
    assert set(doc) == {
        "arms",
        "classification",
        "cyclotomic",
        "salem_coeffs",
        "salem_degree",
        "order_bound",
        "degree_lower_bound",
        "unramified",
        "certificate",
    }
    assert doc["classification"] == "CyclotomicOnly"
    assert doc["cyclotomic"] == [
        {"order": 2, "multiplicity": 1},
        {"order": 18, "multiplicity": 1},
    ]


def test_factor_text(capsys):
    rc, out, _ = run(capsys, "factor", "2", "3", "7")
    assert rc == 0
    assert "tau: 1.176280818" in out
    assert "order bound: 2100\n" in out
    assert out.endswith("\nlambda: 2.006593618346\n")


@pytest.mark.parametrize(
    "arms, bound, line",
    [
        (("2", "3", "7"), -296321652, "vacuous (-296321652)"),
        (("2", "3", "7"), 0, "vacuous (0)"),
        (("2", "3", "7"), 5, "5"),
        (("3", "3", "5"), None, "none"),
    ],
)
def test_factor_text_says_when_the_degree_bound_is_vacuous(monkeypatch, capsys, arms, bound, line):
    # the JSON keeps the exact integer, or null where no bound applies
    if bound not in (None, -296321652):
        monkeypatch.setattr(cli, "salem_degree_lower_bound", lambda tree, m: bound)
    rc, out, _ = run(capsys, "factor", *arms)
    assert rc == 0
    assert f"\ndegree lower bound: {line}\n" in out
    rc, out, _ = run(capsys, "factor", *arms, "--json")
    assert json.loads(out)["degree_lower_bound"] == bound


def test_factor_four_arms_needs_no_cap(capsys):
    rc, out, _ = run(capsys, "factor", "2", "4", "10", "11")
    assert rc == 0
    assert "classification: Salem" in out
    assert "order bound: none\n" in out


def test_converge_mbonacci_csv(capsys):
    rc, out, _ = run(
        capsys, "converge", "mbonacci", "--a0", "2", "--eta", "1", "--a1", "10,20,30,40"
    )
    assert rc == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 4
    assert rows[0]["a_arms"] == "2 10 11"
    gaps = [float(r["gap"]) for r in rows]
    assert gaps == sorted(gaps, reverse=True)
    assert gaps[-1] > 0


def test_converge_general_csv(capsys):
    rc, out, _ = run(
        capsys,
        "converge",
        "general",
        "--prefix",
        "2,4",
        "--r",
        "3",
        "--tails",
        "10:11,20:21",
    )
    assert rc == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 2
    assert float(rows[0]["gap"]) > float(rows[1]["gap"])


def test_converge_excluded_goes_to_stderr(capsys):
    rc, out, err = run(
        capsys, "converge", "mbonacci", "--a0", "2", "--eta", "1", "--a1", "3,10"
    )
    assert rc == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 1  # the excluded entry is reported on stderr only
    assert "note" in err


def test_both_sweeps_note_a_remainder_of_one(capsys):
    # R_T(2, 3, 4) is a product of cyclotomics; both sweeps note the tree
    # and give T(2, 6, 7) the same row against the same limit, the golden ratio
    general = run(
        capsys, "converge", "general", "--prefix", "2", "--r", "2", "--tails", "3:4,6:7"
    )
    mbonacci = run(capsys, "converge", "mbonacci", "--a0", "2", "--eta", "1", "--a1", "3,6")
    assert general == mbonacci
    rc, out, err = general
    assert rc == 0
    assert [row["a_arms"] for row in csv.DictReader(io.StringIO(out))] == ["2 6 7"]
    assert err == "note: arms (2, 3, 4): skipped: no root leaves the unit circle for these arms\n"


def test_scan_csv(capsys):
    rc, out, _ = run(capsys, "scan", "--a0", "2", "--eta", "1", "--k-max", "6", "--a1", "4:10")
    assert rc == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 7 * 6
    assert set(rows[0]) == {"a0", "eta", "a1", "k", "a1_mod_k", "divides"}


def test_grid_json(capsys):
    rc, out, _ = run(capsys, "grid", "--a0", "2:6", "--a1", "2:6", "--a2", "2:6")
    assert rc == 0
    doc = json.loads(out)
    assert doc["failures"] == []
    assert doc["triples"] > 0


def test_bound_json(capsys):
    rc, out, _ = run(capsys, "bound", "2", "1")
    assert rc == 0
    doc = json.loads(out)
    assert doc["m"] == 37
    assert float(doc["eta_lower"]) > 0
    assert doc["n0"] == 3


def test_mann_json(capsys):
    rc, out, _ = run(capsys, "mann", "1", "1", "1", "1", "2", "--search-order", "30")
    assert rc == 0
    # exp(2 pi i j / n) as the exact pair (order n, numerator j)
    assert json.loads(out) == [{"order": 3, "numerator": 1}, {"order": 3, "numerator": 2}]


def test_mann_tall_coefficients(capsys):
    # 2^41 (x^2 + x + 1): the sieve screens a polynomial of any height
    tall = str(1 << 41)
    rc, out, _ = run(capsys, "mann", tall, tall, tall, "1", "2")
    assert rc == 0
    assert out == run(capsys, "mann", "1", "1", "1", "1", "2")[1]


def test_bound_reports_an_uncertified_circle_in_one_line(capsys, monkeypatch):
    # Q = z^3 - 1 leaves Q~ = z^2 + z + 1, whose roots lie on the circle
    _, r, s = factorize.block_polys(2, 1)
    cube = IntPoly((-1, 0, 0, 1))
    monkeypatch.setattr(factorize, "block_polys", lambda a0, delta: (cube, r, s))
    rc, out, err = run(capsys, "bound", "2", "1")
    assert rc == 2 and out == ""
    assert err.count("\n") == 1 and len(err) < 160
    assert "on the circle" in err and "polynomial of height" in err


def test_output_to_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    rc, out, _ = run(capsys, "bound", "2", "1", "--output", str(target))
    assert rc == 0
    assert out == ""
    assert json.loads(target.read_text())["m"] == 37


def test_unwritable_output_is_a_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "out.txt"
    rc, out, err = run(capsys, "factor", "2", "3", "7", "--output", str(target))
    assert rc == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(target) in err
    assert not target.exists()


def test_unwritable_output_fails_before_the_work(tmp_path, capsys, monkeypatch):
    def must_not_run(*args, **kwargs):
        raise AssertionError("grid_verify ran before --output was checked")

    monkeypatch.setattr(cli, "grid_verify", must_not_run)
    target = tmp_path / "missing" / "x"
    argv = ["grid", "--a0", "6:19", "--a1", "6:19", "--a2", "6:19", "--output", str(target)]
    rc, out, err = run(capsys, *argv)
    assert rc == 2 and out == ""
    assert err == f"error: [Errno 2] No such file or directory: {str(target)!r}\n"


@pytest.mark.parametrize("existing", [True, False], ids=["existing", "new"])
def test_a_run_that_fails_later_leaves_the_output_file_as_it_was(
    tmp_path, capsys, monkeypatch, existing
):
    monkeypatch.setattr(factorize, "repunit_certificate", lambda fz: False)
    target = tmp_path / "out.json"
    if existing:
        target.write_text("kept\n")
    rc, out, _ = run(capsys, "factor", "5", "40", "1005", "--json", "--output", str(target))
    assert rc == 3 and out == ""
    assert target.read_text() == "kept\n" if existing else not target.exists()


def test_failing_certificate_is_a_data_error(capsys, monkeypatch):
    monkeypatch.setattr(factorize, "repunit_certificate", lambda fz: False)
    for argv in (["factor", "5", "40", "1005"], ["factor", "5", "40", "1005", "--json"]):
        rc, out, err = run(capsys, *argv)
        assert rc == 3 and out == "", argv
        # the degree and height name the remainder, not its coefficients
        assert err.startswith("error: no Salem certificate") and "height" in err, argv
        assert err.count("\n") == 1 and len(err) < 200, argv


@pytest.mark.parametrize(
    "argv, calls",
    [
        (["factor", "20", "30", "1000"], 1),
        (["grid", "--a0", "2:6", "--a1", "2:6", "--a2", "2:6"], 0),
        (["converge", "mbonacci", "--a0", "2", "--eta", "1", "--a1", "10,20"], 0),
    ],
)
def test_salem_certificate_runs_only_for_the_label(capsys, monkeypatch, argv, calls):
    seen = []
    certificate = factorize.repunit_certificate
    monkeypatch.setattr(
        factorize, "repunit_certificate", lambda fz: seen.append(fz) or certificate(fz)
    )
    rc, _, _ = run(capsys, *argv)
    assert rc == 0 and len(seen) == calls


# every candidate tree of the benchmark's factor_large workload, degree 1018-1048;
# before the trace-polynomial certificate, 12 of them failed
LARGE_TREES = [(a0, a1, 1050 - a0 - a1) for a0 in (2, 3, 5, 8, 13, 20) for a1 in (30, 40, 50)]


def test_factor_certifies_the_large_trees(capsys, monkeypatch):
    # each certificate reads its signs off the repunit rule in one
    # separator_signs call, and every sign, at the 0/0 points too, is the
    # oracle's exact sign at the dyadic value of the float separator
    recorded = []
    signs = factorize.separator_signs

    def recorded_signs(arms, mults):
        points = signs(arms, mults)
        recorded.append((arms, mults, points))
        return points

    monkeypatch.setattr(factorize, "separator_signs", recorded_signs)
    checked = zero_over_zero = 0
    for arms in LARGE_TREES:
        rc, out, err = run(capsys, "factor", *map(str, arms), "--digits", "10", "--json")
        assert rc == 0 and err == "", arms
        doc = json.loads(out)
        cert = doc["certificate"]
        assert doc["classification"] == "Salem", arms
        f = IntPoly.from_coeffs(int(c) for c in doc["salem_coeffs"])
        [(seen_arms, mults, points)] = recorded
        recorded.clear()
        assert seen_arms == arms and points is not None, arms
        m = f.degree() // 2
        separators = [2 * math.cos(2 * math.pi * (p / n)) for p, n, _ in points]
        assert set(separators) == set(tree_separators(arms)), arms
        assert trace_signs(f.coeffs[m:], [dyadic(x) for x in separators]) == [
            sign for _, _, sign in points
        ], arms
        for p, n, _ in points:
            s = sum(a % n == 0 for a in arms)
            if s >= 2:
                assert mults[n] == s - 1, (arms, n)
                zero_over_zero += 1
        lo, hi = (Fraction(end) for end in cert["bracket"])
        assert f.sign_at(*lo.as_integer_ratio()) * f.sign_at(*hi.as_integer_ratio()) < 0, arms
        if arms in ((2, 30, 1018), (5, 40, 1005), (20, 50, 980)):
            # criterion 3 checks this oracle against the companion matrix,
            # which takes 1.5-2.5 s at this degree
            moduli = trace_root_moduli(f.coeffs)
            assert np.max(np.abs(moduli[1:-1] - 1)) < 1e-9, arms
            assert abs(moduli[-1] - float(cert["tau"])) < 1e-9, arms
            assert abs(moduli[0] * float(cert["tau"]) - 1) < 1e-9, arms
            checked += 1
    assert checked == 3 and zero_over_zero > 0


def test_no_root_above_one_is_a_data_error(capsys):
    # the limit polynomial of prefix (2,) with r = 1 is x^3 - x^2
    rc, out, err = run(capsys, "converge", "general", "--prefix", "2", "--r", "1", "--tails", "3")
    assert rc == 3
    assert out == ""
    assert err == "error: no sign change in (1 + 2^-20, 3] for a degree-3 polynomial of height 1\n"


def _general(tails):
    """A converge general argv whose limit polynomial, x^3 - x^2 of the
    prefix (2,) at r = 1, has no root above 1: an entry must be rejected
    before it is solved."""
    return ["general", "--prefix", "2", "--r", "1", "--tails", tails]


def _mbonacci(a0, eta, a1):
    return ["mbonacci", "--a0", a0, "--eta", eta, "--a1", a1]


@pytest.mark.parametrize(
    "argv, message",
    [
        pytest.param(_general(tails), message, id=f"{tails}-{message}")
        for tails, message in [
            ("3:4:5", "error: schedule entry (3, 4, 5) does not extend to r+1 = 2 arms\n"),
            ("3,4:5", "error: schedule entry (4, 5) does not extend to r+1 = 2 arms\n"),
            ("2", "error: full arm vector must be strictly increasing, got (2, 2)\n"),
        ]
    ]
    + [
        # converge mbonacci is the prefix (a0) at r = 2, checked the same way
        pytest.param(
            _mbonacci("2", "1", "2"),
            "error: full arm vector must be strictly increasing, got (2, 2, 3)\n",
            id="mbonacci-a1-not-above-a0",
        ),
        pytest.param(
            _mbonacci("2", "0", "5"),
            "error: full arm vector must be strictly increasing, got (2, 5, 5)\n",
            id="mbonacci-eta-0",
        ),
        pytest.param(
            _mbonacci("1", "1", "5"), "error: arm lengths must be >= 2\n", id="mbonacci-a0-1"
        ),
    ],
)
def test_converge_general_checks_tails_first(capsys, argv, message):
    rc, out, err = run(capsys, "converge", *argv)
    assert rc == 2
    assert out == ""
    assert err == message


@pytest.mark.parametrize(
    "argv, bad",
    [
        (["poly", "2", "3", "7"], "csv"),
        (["factor", "2", "3", "7"], "csv"),
        (["converge", "mbonacci", "--a0", "2", "--eta", "1", "--a1", "10"], "json"),
        (["converge", "mbonacci", "--a0", "2", "--eta", "1", "--a1", "10"], "text"),
        (["scan", "--a0", "2", "--eta", "1", "--a1", "4:5"], "json"),
        (["grid", "--a0", "2:4", "--a1", "2:4", "--a2", "2:4"], "csv"),
        (["bound", "2", "1"], "text"),
        (["mann", "1", "1", "1", "1", "2"], "csv"),
    ],
)
def test_format_takes_only_what_the_subcommand_writes(capsys, argv, bad):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--format", bad])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


# sha256 of stdout. The converge digest was recorded before the ball screen
# entered dominant_root and sign_at, the factor digest when the multiplicity
# bound's circle scan became an exact proof (which lowered m, and with it
# degree_lower_bound), the poly and converge general digests while R_T was
# still divided out of P, the bound digests while multiplicity_bound still
# selected n0 and c in Fraction arithmetic, the 6:19 grid digest while the
# bridge still compared chi_T with R_T coefficient by coefficient, the
# converge mbonacci digests for a1 14,36 and 24,26 while dominant_root's
# Newton ladder still took two full-width steps before trying the cell,
# and the factor 2 30 1018 (degree 1046, four ladder rungs at 200 digits)
# and factor 3 5 11 (a ladder past 1000 digits) digests while that ladder
# still rounded its Newton points to decimal place counts; every byte must
# stay the same
PINNED_STDOUT = {
    "converge mbonacci --a0 3 --eta 2 --a1 19,31 --digits 1000":
        "d3070fb1e6629a38e6e7bbe74ec74f153c51152b37891da108304b844c27cd5b",
    "converge mbonacci --a0 2 --eta 1 --a1 14,36 --digits 1000":
        "d5a8767240eaf79e5639d7c52a723922044796964e71e11ec152f1df524dbc3a",
    "converge mbonacci --a0 3 --eta 1 --a1 24,26 --digits 1000":
        "9ba91a53f2eece68efac1a9646ced7e90e2c4cb23df987ec53662c3d51d3b82b",
    "factor 5 40 1005 --digits 30 --json":
        "25ab455e8e1a5f1d07051787fb90b5b35c1a692b080b124258740095019232a5",
    "factor 2 30 1018 --digits 200 --json":
        "0ef1570deb6a4df4d7ef670df0285633fbdf5b12c79b57cfe395919b3c97cb12",
    "factor 3 5 11 --digits 2000":
        "950c4462c36c77c617087ec5a66cc277144eae356421d243b2033b5de9a5f47a",
    "grid --a0 2:8 --a1 2:8 --a2 2:8":
        "21ff2e5f9e0cff35b1628c404a7f8d4cf36cecee636ed15ab65e50b31d96eeb0",
    "grid --a0 6:19 --a1 6:19 --a2 6:19":
        "31f604cad1ea64a0547f738106a438634d146a288aa8b95e9707bceb3e03d6ee",
    "scan --a0 2 --eta 1 --a1 4:10 --full-bound":
        "d08065c92b8bea112b031706fbeb7764ccda5fd762cfe0748b13100ed9805d3c",
    "poly 2 3 7":
        "562f4f62d5410210d88a0fa07cc37042c5bc896c45cd3a7f14109ae4627844bb",
    "poly 3 3 5":
        "0d66e35e707cebcdefe689a4a7c37e73af9fbc5dc25c8289406c8caa0a8822bd",
    "poly 2 4 10 11 --format json":
        "c152edfdae2d7c0c86f5ac98343e8bf9815e307ebdd133843d01897ee1bb85a1",
    "poly 5 40 1005 --format json":
        "2abe3f57d93dec319d91f543c6720aec34a4747971b27bd3887d8f4b5db6787a",
    "converge general --prefix 2,4 --r 3 --tails 10:11,20:21,40:41 --digits 200":
        "5591dd6b68f28965641842d80d406d957b8b635b4844956c19e46fc77fba9859",
    "bound 2 1":
        "40bd053ccf049a8b4ea06161b55481960fed7ad9e8c2ac8d22ccf13000ae7b81",
    "bound 7 3":
        "417490961dfa1a37b1f08a5a0f57a9cddd15f3f0f5d55bbefe5c219fc3a4dfb4",
    "bound 20 13":
        "1f09d8a97cc6cd520e4222815dd45811d648ea52586d1b0b79fa3ef620a1c7ba",
    "bound 25 20":
        "0b10e3ffa677f5f4b06a03d8fba3d25dfa93eed5d834742658cd3d17dbc2e8fb",
    "bound 5 965":
        "d2046d0fec421b0e8cc1e4f9e9f3ef1602f54b11fa1d2bdcb2ddbb4661561278",
}

# sha256 of the sorted-key JSON without degree_lower_bound, recorded when its
# JSON bracket became the decimal cell of tau, before the exact circle bound
PINNED_JSON_BUT_DEGREE_BOUND = {
    "factor 5 40 1005 --digits 30 --json":
        "27264fcbedebe0163faa17c16d07bf3562c1f1e21e6953407f87dce81f9b40a8",
}


@pytest.mark.parametrize("command", sorted(PINNED_STDOUT))
def test_stdout_is_pinned(capsys, command):
    rc, out, _ = run(capsys, *command.split())
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_STDOUT[command]


@pytest.mark.parametrize("command", sorted(PINNED_JSON_BUT_DEGREE_BOUND))
def test_json_but_the_degree_bound_is_pinned(capsys, command):
    rc, out, _ = run(capsys, *command.split())
    assert rc == 0
    doc = json.loads(out)
    del doc["degree_lower_bound"]
    digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
    assert digest == PINNED_JSON_BUT_DEGREE_BOUND[command]


# the console-script commands of CI, less the three slowest
NO_NUMPY_COMMANDS = [
    "poly 2 3 7",
    "poly 2 4 10 11 --format json",
    "converge general --prefix 2 --r 2 --tails 3:4,6:7 --digits 20",
    "factor 2 3 7",
    "factor 5 40 1005 --json",
    "factor 3 3 5 --json",
    "factor 2 2 2 2 2",
    "bound 20 13",
    "mann 2199023255552 2199023255552 2199023255552 1 2",
    "converge mbonacci --a0 3 --eta 2 --a1 19,31 --digits 1000",
    "converge general --prefix 2,4 --r 3 --tails 10:11,20:21,40:41 --digits 200",
    "grid --a0 2:8 --a1 2:8 --a2 2:8",
    "scan --a0 2 --eta 1 --a1 4:10 --full-bound",
    "factor 2 3 7 --digits 1000",
    "factor 3 5 11 --digits 2000",
]

NO_NUMPY_SCRIPT = """
import contextlib, io, json, sys
import starsalem.cli as cli
imported = sorted(name for name in sys.modules if name.split(".")[0] == "numpy")
sys.modules["numpy"] = None  # from here on every import of numpy raises ImportError
runs = []
for command in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(command.split())
    runs.append([rc, out.getvalue()])
print(json.dumps({"imported": imported, "runs": runs}))
"""


def test_the_runtime_never_touches_numpy(capsys):
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", NO_NUMPY_SCRIPT, json.dumps(NO_NUMPY_COMMANDS)],
        capture_output=True, text=True, env=env, check=True,
    )
    result = json.loads(proc.stdout)
    assert result["imported"] == []  # import starsalem.cli loads no numpy
    for command, (rc, out) in zip(NO_NUMPY_COMMANDS, result["runs"], strict=True):
        assert rc == 0, command
        assert out == run(capsys, *command.split())[1], command


def readme_commands():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```")[1]
    return [
        shlex.split(line, comments=True)[1:]
        for line in block.splitlines()
        if line.startswith("starsalem ")
    ]


def test_readme_command_examples_run(capsys):
    commands = readme_commands()
    assert len(commands) >= 8
    for argv in commands:
        assert main(argv) == 0, argv
        capsys.readouterr()


def test_readme_factor_block_is_its_stdout(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("`factor 2 3 7` prints:\n\n```\n", 1)[1].split("```", 1)[0]
    rc, out, _ = run(capsys, "factor", "2", "3", "7")
    assert rc == 0
    assert out == block


def test_readme_library_example_prints_its_comments(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    code = readme.split("## Library", 1)[1].split("```python", 1)[1].split("```", 1)[0]
    # each print's comment up to any ";" is what it prints; "..." elides the middle
    expected = [
        line.split("#", 1)[1].split(";")[0].strip()
        for line in code.splitlines()
        if line.startswith("print(")
    ]
    exec(code, {})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == len(expected) == 4
    for got, want in zip(printed, expected):
        if " ... " in want:
            head, tail = want.split(" ... ")
            assert got.startswith(head) and got.endswith(tail), (got, want)
        else:
            assert got == want
    assert printed[2:] == ["1.176280818259917506544070338474", "2.006593618346016732650515917682"]


def test_digits_floor():
    with pytest.raises(SystemExit) as exc:
        main(["factor", "2", "3", "7", "--digits", "5"])
    assert exc.value.code == 2


@pytest.mark.parametrize("arms", [(2, 3, 7), (3, 4, 8), (2, 4, 10, 11)])
def test_factor_json_ignores_arm_order(capsys, arms):
    outputs = set()
    for perm in itertools.permutations(arms):
        rc, out, _ = run(capsys, "factor", *map(str, perm), "--json")
        assert rc == 0, perm
        outputs.add(out)
    assert len(outputs) == 1
    doc = json.loads(outputs.pop())
    assert doc["arms"] == sorted(arms)
    assert doc["classification"] == "Salem"


def test_factor_text_reversed_arms(capsys):
    rc, out, _ = run(capsys, "factor", "7", "3", "2")
    assert rc == 0
    assert "arms: (2, 3, 7)\n" in out
    assert "classification: Salem\n" in out
    assert "order bound: 2100\n" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["scan", "--a0", "2", "--eta", "1", "--a1", "5:4"],
        ["scan", "--a0", "2", "--eta", "1", "--a1", "5"],
        ["grid", "--a0", "5:2", "--a1", "2:8", "--a2", "2:8"],
        ["grid", "--a0", "2:8", "--a1", "2:8", "--a2", "8"],
        ["grid", "--a0", "2:x", "--a1", "2:8", "--a2", "2:8"],
        ["grid", "--a0", "2:3:4", "--a1", "2:8", "--a2", "2:8"],
    ],
)
def test_bad_range_is_a_usage_error(capsys, argv):
    rc, out, err = run(capsys, *argv)
    assert rc == 2
    assert out == ""
    assert err.startswith("error: expected a range lo:hi") and err.count("\n") == 1


def test_factor_digits_past_int_str_limit(capsys):
    from test_roots import LEHMER_TAU_30

    rc, out, err = run(capsys, "factor", "2", "3", "7", "--digits", "5000")
    assert rc == 0 and err == ""
    tau = next(line for line in out.splitlines() if line.startswith("tau: "))[5:]
    assert tau.startswith(LEHMER_TAU_30) and len(tau) == 5002
    rc, out, _ = run(capsys, "factor", "2", "3", "7", "--digits", "5000", "--json")
    assert rc == 0
    cert = json.loads(out)["certificate"]
    assert cert["tau"] == tau
    assert cert["lambda"].startswith("2.006593618346016732650515917682")
    assert len(cert["lambda"]) == 5002
    assert all("/" in end for end in cert["bracket"])

from dataclasses import replace
from fractions import Fraction

import pytest

import starsalem.scan as scan
from starsalem import (
    IntPoly,
    PeriodicityViolation,
    StarTree,
    coxeter_polynomial,
    factor_coxeter,
    grid_verify,
    multiplicity_bound,
    periodicity_scan,
)
from starsalem.cli import main
from starsalem.cyclotomic import default_table
from starsalem.scan import (
    _bridge_failure,
    _check_degree_bound,
    _check_multiplicity,
    _check_order,
)

from oracles import divides_poly, pmul


def test_scan_period_one_order():
    records = periodicity_scan(2, 1, 1, (4, 20))
    k1 = [r.divides for r in records if r.k == 1]
    assert len(set(k1)) == 1  # constant across a1: period 1


def test_scan_residue_law_small():
    # no PeriodicityViolation raised over a full residue sweep
    records = periodicity_scan(2, 1, 12, (4, 40))
    assert len(records) == 37 * 12
    # frozen dividing pattern for this family, k <= 12: exactly these
    # (k, a1 mod k) classes divide
    dividing = sorted({(r.k, r.a1_mod_k) for r in records if r.divides})
    assert dividing == [(2, 0), (2, 1), (4, 1), (8, 2)]


def test_scan_agrees_with_naive_divisibility():
    table = default_table()
    records = periodicity_scan(2, 2, 8, (4, 10))
    for rec in records:
        rt = coxeter_polynomial(StarTree(rec.arms))
        expect = divides_poly(
            list(table.cyclotomic(rec.k).coeffs), list(rt.coeffs)
        )
        assert rec.divides == expect, rec


def test_scan_determinism():
    a = periodicity_scan(3, 1, 10, (5, 25))
    b = periodicity_scan(3, 1, 10, (5, 25))
    assert a == b


def test_scan_ordering():
    records = periodicity_scan(2, 1, 5, (4, 8))
    keys = [(r.arms[1], r.k) for r in records]
    assert keys == sorted(keys)


def test_scan_validation():
    with pytest.raises(ValueError):
        periodicity_scan(2, 1, 5, (2, 10))  # a1 range must start above a0
    with pytest.raises(ValueError):
        periodicity_scan(2, 0, 5, (4, 10))


def _hide_order_two_at_a1_7(monkeypatch):
    """Make the sieve miss Phi_2 | R_T for T(2, 7, 8) alone. Phi_2 divides
    R_T for every a1 of the family a0 = 2, eta = 1, so a1 = 5 and a1 = 7,
    both odd, now disagree."""
    real = scan.cyclotomic_divisors
    target = coxeter_polynomial(StarTree((2, 7, 8)))
    monkeypatch.setattr(
        scan,
        "cyclotomic_divisors",
        lambda f, max_order: [k for k in real(f, max_order) if (f, k) != (target, 2)],
    )


def test_scan_periodicity_check_can_fail(monkeypatch):
    _hide_order_two_at_a1_7(monkeypatch)
    with pytest.raises(PeriodicityViolation) as exc:
        periodicity_scan(2, 1, 6, (4, 10))
    message = str(exc.value)
    for witness in ("k=2", "a1 mod k=1", "a1=5", "a1=7"):
        assert witness in message, message


def test_periodicity_violation_is_a_data_error(capsys, monkeypatch):
    _hide_order_two_at_a1_7(monkeypatch)
    rc = main("scan --a0 2 --eta 1 --k-max 6 --a1 4:10".split())
    out, err = capsys.readouterr()
    assert rc == 3 and out == ""
    assert err.startswith("error: residue-class law failed for k=2") and err.count("\n") == 1


def test_scan_through_an_affine_tree_leaves_order_1_out_of_the_law(capsys):
    # T(2, 3, 6) is the affine tree E8~: Phi_1 divides R_T at a1 = 3 and
    # at no other a1, as R_T(1) depends on a1 itself; the law holds from
    # k = 2, and the k = 1 rows are still printed
    rc = main("scan --a0 2 --eta 3 --a1 3:8 --full-bound".split())
    out, err = capsys.readouterr()
    assert rc == 0 and err == ""
    rows = out.splitlines()
    assert rows[1] == "2,3,3,1,0,1"
    assert [row for row in rows if row.split(",")[3] == "1"] == [
        f"2,3,{a1},1,0,{int(a1 == 3)}" for a1 in range(3, 9)
    ]


def test_grid_verify_small():
    summary = grid_verify((2, 8), (2, 8), (2, 8))
    assert summary["triples"] == 32
    assert summary["skipped_excluded"] == 3
    assert summary["order_bound_fail"] == 0
    assert summary["multiplicity_fail"] == 0
    assert summary["degree_bound_fail"] == 0
    assert summary["bridge_fail"] == 0
    assert summary["failures"] == []
    assert summary["max_observed_order"] >= 1
    # every triple got a bridge verdict
    assert summary["bridge_pass"] == 32


def test_order_check_fails_on_an_order_past_the_bound():
    tree = StarTree((2, 4, 5))  # order bound 840
    fz = factor_coxeter(tree)
    # the one order the uncapped sieve finds sits far below 840
    assert fz.cyclotomic_factors == {2: 1}
    assert fz.max_observed_order == 2
    assert _check_order(tree, fz) == "pass"
    assert _check_order(tree, replace(fz, max_observed_order=840)) == "pass"
    assert _check_order(tree, replace(fz, max_observed_order=841)) == "order_bound"


def test_multiplicity_check_adds_r_plus_1_at_order_1():
    # no strictly ordered tree has Phi_1 | R_T, so the grid never feeds
    # this case: with Phi_1 once, the roots of P = (z - 1)^3 R_T at 1 number
    # 1 + 3 on a three-arm tree, past m = 3; at order 2 the same count passes
    tree = StarTree((2, 4, 5))
    fz = factor_coxeter(tree)
    trace = replace(multiplicity_bound(2, 1), m=3)
    assert _check_multiplicity(tree, replace(fz, cyclotomic_factors={2: 3}), trace) == "pass"
    assert _check_multiplicity(tree, replace(fz, cyclotomic_factors={1: 1}), trace) == "multiplicity_bound"


def test_degree_bound_check_can_fail(monkeypatch):
    # the bound is vacuous on every tree the grid reaches, so it is patched
    # here: to 0 (vacuous), to the Salem degree (met) and one past it
    tree = StarTree((2, 4, 5))
    fz = factor_coxeter(tree)
    trace = multiplicity_bound(2, 1)
    degree = fz.salem_factor.degree()
    for bound, outcome in ((0, "vacuous"), (degree, "pass"), (degree + 1, "degree_lower_bound")):
        monkeypatch.setattr(scan, "salem_degree_lower_bound", lambda tree, m, bound=bound: bound)
        assert _check_degree_bound(tree, fz, trace) == outcome, bound


def test_grid_verify_default_cli_grid():
    summary = grid_verify((2, 15), (2, 15), (2, 15))
    assert summary["failures"] == []
    assert summary["triples"] == 361
    assert summary["skipped_excluded"] == 3


def test_grid_verify_json_ready():
    import json

    summary = grid_verify((2, 6), (2, 6), (2, 6))
    blob = json.dumps(summary, sort_keys=True)
    assert json.loads(blob) == summary


# ----------------------------------------------------------------------
# the exact lambda-tau bridge can fail
# ----------------------------------------------------------------------

def _lehmer_box_summary():
    """grid_verify on the one-triple box T(2, 3, 7)."""
    return grid_verify((2, 2), (3, 3), (7, 7))


def _assert_bridge_failed(summary, check):
    assert summary["triples"] == 1
    assert (summary["bridge_pass"], summary["bridge_fail"]) == (0, 1)
    assert summary["failures"] == [{"arms": [2, 3, 7], "check": check}]


def test_bridge_passes_on_the_lehmer_tree():
    summary = _lehmer_box_summary()
    assert (summary["bridge_pass"], summary["bridge_fail"]) == (1, 0)
    assert summary["failures"] == []


def test_bridge_fails_on_a_wrong_tau_bracket(monkeypatch):
    real = scan.dominant_root
    shift = Fraction(1, 10**6)

    def shifted(f, digits):
        root, (lo, hi) = real(f, digits)
        return root + shift, (lo + shift, hi + shift)

    monkeypatch.setattr(scan, "dominant_root", shifted)
    _assert_bridge_failed(_lehmer_box_summary(), "lambda_tau_bridge")


def test_bridge_fails_on_a_wrong_characteristic_polynomial(monkeypatch):
    # the values of chi_T + 1
    real = scan._chi_value
    monkeypatch.setattr(
        scan, "_chi_value", lambda tree, p, q: real(tree, p, q) + q**tree.vertex_count
    )
    _assert_bridge_failed(_lehmer_box_summary(), "acampo_identity")


@pytest.mark.parametrize("change", [1, -1])
def test_packed_acampo_identity_sees_one_changed_coefficient(monkeypatch, change):
    # chi_T + change * x^k for every k: its value at B + 1/B moves by
    # change * B^(n-k) (B^2 + 1)^k, never 0, so the one packed comparison
    # must fail whichever coefficient is off
    tree = StarTree((2, 3, 7))
    fz = factor_coxeter(tree)
    _, tau = scan.dominant_root(fz.salem_factor, 15)
    lam = scan.lambda_bracket(tau, 15)
    assert _bridge_failure(tree, fz.rt, lam) is None
    real, n = scan._chi_value, tree.vertex_count
    for k in range(n + 1):
        monkeypatch.setattr(
            scan, "_chi_value", lambda t, p, q, k=k: real(t, p, q) + change * p**k * q ** (n - k)
        )
        assert _bridge_failure(tree, fz.rt, lam) == "acampo_identity", k


def test_bridge_fails_at_an_exact_zero_of_chi():
    # T(2, 3, 8) has 11 vertices and is bipartite, so chi_T(0) = 0: an
    # enclosure that ends at 0 has no sign change to show, whatever the
    # sign at its other end
    tree = StarTree((2, 3, 8))
    assert scan._chi_value(tree, 0, 1) == 0
    assert _bridge_failure(tree, coxeter_polynomial(tree), (Fraction(0), Fraction(3))) == "lambda_tau_bridge"


def test_bridge_fails_with_two_eigenvalues_above_two(monkeypatch):
    # chi = (x^2 - 9)(x^2 - 5) has the roots 3 and sqrt 5 above 2; its
    # A'Campo partner is (w^2 - 7w + 1)(w^2 - 3w + 1), and the tau of
    # w^2 - 7w + 1 maps to lambda = 3, so checks 1 and 2 pass. Its values
    # q^4 chi(p/q) stand in for the tree's; the slot widths that the tree
    # T(2, 3, 7) gives are wide enough for this chi too
    chi = IntPoly.from_coeffs(pmul([-9, 0, 1], [-5, 0, 1]))
    tau_poly = IntPoly.from_coeffs([1, -7, 1])
    rt = IntPoly.from_coeffs(pmul(tau_poly.coeffs, [1, -3, 1]))
    real_factor, real_root = scan.factor_coxeter, scan.dominant_root
    monkeypatch.setattr(scan, "_chi_value", lambda tree, p, q: chi.scaled_value(p, q)[0])
    monkeypatch.setattr(scan, "factor_coxeter", lambda tree: replace(real_factor(tree), rt=rt))
    monkeypatch.setattr(scan, "dominant_root", lambda f, digits: real_root(tau_poly, digits))
    _assert_bridge_failed(_lehmer_box_summary(), "one_eigenvalue_above_two")

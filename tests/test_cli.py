import csv
import io
import json
import shlex
from pathlib import Path

import pytest

from starsalem.cli import main


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
    assert "warning" in err
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
    doc = json.loads(out)
    assert [d["order"] for d in doc] == [3, 3]


def test_output_to_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    rc, out, _ = run(capsys, "bound", "2", "1", "--output", str(target))
    assert rc == 0
    assert out == ""
    assert json.loads(target.read_text())["m"] == 37


def test_root_nonconvergence_is_a_data_error(capsys, monkeypatch):
    import starsalem.roots as roots

    def stalled(f, *args, **kwargs):
        raise roots.NonConvergence("Aberth iteration stalled")

    monkeypatch.setattr(roots, "aberth_roots", stalled)
    rc, out, err = run(capsys, "factor", "2", "3", "7")
    assert rc == 3
    assert out == ""
    assert err.startswith("error: Aberth iteration stalled")


def test_no_root_above_one_is_a_data_error(capsys):
    # the limit polynomial of prefix (2,) with r = 1 is x^3 - x^2
    rc, out, err = run(capsys, "converge", "general", "--prefix", "2", "--r", "1", "--tails", "3")
    assert rc == 3
    assert out == ""
    assert err == "error: no sign change in (1, 3] for a degree-3 polynomial of height 1\n"


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


def test_digits_floor():
    with pytest.raises(SystemExit) as exc:
        main(["factor", "2", "3", "7", "--digits", "5"])
    assert exc.value.code == 2

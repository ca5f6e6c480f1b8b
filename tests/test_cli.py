import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from degbound import cli
from degbound.cli import (
    EXIT_IO,
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_PIPE,
    EXIT_USAGE,
    FAMILY_MAX,
    main,
)
from degbound.graphs import Graph, double_star, to_graph6


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# compute


def test_compute_k3_json(capsys):
    code, out, _ = run(capsys, "compute", "--g6", "Bw", "--format", "json")
    assert code == EXIT_OK
    row = json.loads(out)["rows"][0]
    assert row["GA"] == pytest.approx(3.0)
    assert row["AZI"] == pytest.approx(24.0)
    assert row["chi"] == 3
    assert row["graph6"] == "Bw"


def test_compute_p2_edge_list_marks_azi_undefined(capsys, tmp_path):
    path = tmp_path / "p2.edges"
    path.write_text("2\n0 1\n")
    code, out, _ = run(capsys, "compute", "--file", str(path), "--format", "table")
    assert code == EXIT_OK
    assert "undefined" in out
    code, out, _ = run(capsys, "compute", "--file", str(path), "--format", "json")
    assert json.loads(out)["rows"][0]["AZI"] is None


def test_compute_double_star(capsys, tmp_path):
    path = tmp_path / "tstar.g6"
    path.write_text(to_graph6(double_star()) + "\n")
    code, out, _ = run(capsys, "compute", "--file", str(path), "--format", "json")
    assert code == EXIT_OK
    row = json.loads(out)["rows"][0]
    assert row["ABC"] == pytest.approx(3 * math.sqrt(3) + math.sqrt(6) / 4, rel=1e-12)
    assert row["GA"] == pytest.approx(5.8, rel=1e-12)


def test_compute_family_flag(capsys):
    code, out, _ = run(capsys, "compute", "--family", "star:8", "--format", "json")
    assert code == EXIT_OK
    row = json.loads(out)["rows"][0]
    assert row["n"] == 9
    assert row["AZI"] == pytest.approx(4096 / 343, rel=1e-12)


@pytest.mark.parametrize("g6", ["@", "B?"])
def test_compute_edgeless_graph_prints_float_zeros(capsys, g6):
    code, out, _ = run(capsys, "compute", "--g6", g6, "--format", "json")
    assert code == EXIT_OK
    row = json.loads(out)["rows"][0]
    for key in ("R", "H", "ABC", "X", "GA", "AZI", "M2*"):
        assert type(row[key]) is float and row[key] == 0.0, key
        assert f'"{key}": 0.0' in out


def test_compute_usage_errors(capsys):
    code, _, err = run(capsys, "compute")
    assert code == EXIT_USAGE
    code, _, err = run(capsys, "compute", "--g6", "Bw", "--family", "cycle:4")
    assert code == EXIT_USAGE


BAD_FAMILIES = {
    "nonsense": "unknown family 'nonsense'",
    "cycle:2": "cycle needs n >= 3, got 2",
    "double_star:3": "family 'double_star' takes no parameter",
    "star:x": "--family parameter must be an integer, got 'star:x'",
}


@pytest.mark.parametrize("family", list(BAD_FAMILIES))
def test_compute_bad_family_is_usage_error(capsys, family):
    code, out, err = run(capsys, "compute", "--family", family)
    assert code == EXIT_USAGE, err
    assert out == ""
    assert err == f"error: {BAD_FAMILIES[family]}\n"


def test_compute_family_parameter_is_capped(capsys, monkeypatch):
    """Building a family member is quadratic in its order, so a parameter
    above the --max-n cap is refused before any graph is built."""
    def build(tag, param):
        raise AssertionError(f"built {tag}:{param}")

    monkeypatch.setattr(cli, "make_family", build)
    for family in ("complete:201", "star:100000", "path:10000000000"):
        code, out, err = run(capsys, "compute", "--family", family)
        assert code == EXIT_USAGE
        assert out == ""
        assert err == f"error: --family parameter must be at most 200, got {family!r}\n"
    monkeypatch.undo()
    code, out, _ = run(capsys, "compute", "--family", f"complete:{FAMILY_MAX}",
                       "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out)["rows"][0]["n"] == FAMILY_MAX == 200
    code, _, err = run(capsys, "families", "--max-n", str(FAMILY_MAX + 1))
    assert code == EXIT_USAGE
    assert err == "error: --max-n must be in 2..200, got 201\n"


def test_compute_malformed_graph6_is_io_error(capsys):
    code, _, err = run(capsys, "compute", "--g6", "B")
    assert code == EXIT_IO
    assert "error" in err


def test_compute_file_error_names_the_line(capsys, tmp_path):
    path = tmp_path / "pop.g6"
    path.write_text("Bw\nBAD~LINE\n")
    code, out, err = run(capsys, "compute", "--file", str(path))
    assert code == EXIT_IO, out
    assert f"{path}, line 2" in err


@pytest.mark.parametrize("name, text, err", [
    ("path.edges", "# a path\n\n3  # order\n0 1\n0 1 2  # one too many\n",
     "error: edge list, line 5: expected 'u v', got '0 1 2'\n"),
    ("pop.g6", "# a population\n\nBw  # K_3\nBAD~LINE  # bad\n",
     "error: {path}, line 4: graph6: expected 2 characters for n=3, got 8\n"),
], ids=["edge-list", "graph6"])
def test_compute_file_error_names_the_true_line(capsys, tmp_path, name, text, err):
    """Comment and blank lines count toward the reported line number."""
    path = tmp_path / name
    path.write_text(text)
    assert run(capsys, "compute", "--file", str(path)) == (EXIT_IO, "", err.format(path=path))


def test_compute_file_is_read_once(capsys, tmp_path, monkeypatch):
    path = tmp_path / "k3.g6"
    path.write_text("Bw\n")
    reads = []
    read_text = Path.read_text

    def counting_read_text(self, *args, **kwargs):
        reads.append(self)
        return read_text(self, *args, **kwargs)

    monkeypatch.setattr(Path, "read_text", counting_read_text)
    code, out, _ = run(capsys, "compute", "--file", str(path), "--format", "json")
    assert code == EXIT_OK
    assert len(json.loads(out)["rows"]) == 1
    assert reads == [path]


WHEEL_13 = Graph(13, [(0, v) for v in range(1, 13)] + [(v, v % 12 + 1) for v in range(1, 13)])


@pytest.mark.parametrize("source, want", [
    (["--g6", to_graph6(Graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]))],
     {"n": 6, "m": 6, "chi": 3, "delta": 2, "Delta": 2}),
    (["--g6", to_graph6(Graph(3, [(0, 1)]))], {"n": 3, "m": 1, "chi": 2, "delta": 0}),
    (["--g6", to_graph6(WHEEL_13)], {"n": 13, "chi": None, "delta": 3, "Delta": 12}),
    (["--family", "cycle:100"], {"graph6": None, "n": 100, "chi": None, "GA": 100.0}),
], ids=["two-triangles", "K2+K1", "wheel-13", "cycle-100"])
def test_compute_record(capsys, source, want):
    """chi is computed for every graph up to the chromatic cap, connected or
    not, and graph6 is null above order 62."""
    code, out, _ = run(capsys, "compute", *source, "--format", "json")
    assert code == EXIT_OK
    row = json.loads(out)["rows"][0]
    assert {key: row[key] for key in want} == want


# No header here lies between 10**7 and 10**11: without the cap, Graph(n, edges)
# would allocate gigabytes for it before reading an edge.
@pytest.mark.parametrize("header, code, err", [
    ("201", EXIT_IO, "error: edge list: vertex count must be at most 200, got 201\n"),
    (str(10**12), EXIT_IO,
     "error: edge list: vertex count must be at most 200, got 1000000000000\n"),
    ("1" * 5000, EXIT_IO, "error: edge list, line 1: expected vertex count, got '1111"),
    ("200", EXIT_OK, ""),
], ids=["201", "10**12", "5000-digits", "200"])
def test_compute_edge_list_vertex_count_is_capped(capsys, tmp_path, header, code, err):
    path = tmp_path / "big.edges"
    path.write_text(f"{header}\n0 1\n")
    got_code, out, got_err = run(capsys, "compute", "--file", str(path), "--format", "json")
    assert (got_code, got_err[:len(err)]) == (code, err)
    if code == EXIT_OK:
        assert json.loads(out)["rows"][0]["n"] == FAMILY_MAX == 200
    else:
        assert out == ""


# ---------------------------------------------------------------------------
# families


def test_families_cycles_ratio(capsys):
    code, out, _ = run(capsys, "families", "--max-n", "30", "--format", "json")
    assert code == EXIT_OK
    rows = json.loads(out)["rows"]
    cycles = [r for r in rows if r["family"] == "cycle"]
    assert {r["n"] for r in cycles} == set(range(3, 31))
    for r in cycles:
        assert r["AZI"] == pytest.approx(8 * r["n"], rel=1e-14)
        assert r["GA"] == pytest.approx(r["n"], rel=1e-14)
        assert r["agrees"] is True
    stars = [r for r in rows if r["family"] == "star"]
    s8 = next(r for r in stars if r["param"] == 8)
    assert s8["ABC"] == pytest.approx(math.sqrt(8 * 7), rel=1e-14)


def test_families_all_rows_agree(capsys):
    code, out, _ = run(capsys, "families", "--max-n", "60", "--format", "json")
    assert code == EXIT_OK
    rows = json.loads(out)["rows"]
    assert all(r["agrees"] for r in rows)
    assert all(r["max_rel_dev"] <= 1e-12 for r in rows)


def test_families_range_cap(capsys):
    code, _, err = run(capsys, "families", "--max-n", "500")
    assert code == EXIT_USAGE


# ---------------------------------------------------------------------------
# proofs


def test_proofs_flagship_claims(capsys):
    code, out, _ = run(capsys, "proofs", "--n", "20", "--format", "json")
    assert code == EXIT_OK
    claims = json.loads(out)["claims"]
    t6_min = next(c for c in claims if "9*(8/7)^6" in c["claim"])
    assert t6_min["verdict"] == "confirmed"
    assert "(1, 8)" in t6_min["observed"]


def test_proofs_t4_and_t21_values(capsys):
    code, out, _ = run(capsys, "proofs", "--n", "9", "--format", "json")
    assert code == EXIT_OK
    claims = json.loads(out)["claims"]
    t4 = next(c for c in claims if "(ABC/GA)^2 maximum" in c["claim"])
    assert t4["verdict"] == "confirmed"
    assert "(2, 8)" in t4["observed"]
    assert f"{100 / 128:.12g}" in t4["claim"]
    code, out, _ = run(capsys, "proofs", "--n", "7", "--format", "json")
    claims = json.loads(out)["claims"]
    t21 = [c for c in claims if "AZI/M2*" in c["claim"]]
    assert t21 and all(c["verdict"] == "discrepant" for c in t21)


@pytest.mark.parametrize("argv, digest", [
    (["--n", "62", "--format", "json"],
     "b64990081fb3e59cf7c8593398c065329921996f2bbdc54753789738fd03756d"),
    (["--n", "20"], "ae57c4fd3bffc89f571ec7ecec773eee8dd15a464cb6f76b05b7c5cf0b0a00a7"),
])
def test_proofs_output_matches_pinned_digest(capsys, argv, digest):
    code, out, err = run(capsys, "proofs", *argv)
    assert code == EXIT_OK and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# ---------------------------------------------------------------------------
# audit / verify


def test_audit_reports_files(capsys, tmp_path):
    out_dir = tmp_path / "reports"
    code, out, _ = run(capsys, "audit", "--enumerate", "4", "--bounds", "all",
                       "--format", "json", "--out", str(out_dir))
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["population"] == "enumerate(n=4)"
    assert len(doc["reports"]) == 55
    assert (out_dir / "T6L.json").is_file()
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["verdicts"]["T7-(21)U"] == "violated"


def test_audit_and_verify_give_identical_reports(capsys, tmp_path):
    runs = {}
    for command in ("audit", "verify"):
        out_dir = tmp_path / command
        code, out, err = run(capsys, command, "--enumerate", "6", "--out", str(out_dir))
        assert code == EXIT_OK, err
        runs[command] = out, {p.name: p.read_bytes() for p in out_dir.iterdir()}, err
    assert runs["audit"][:2] == runs["verify"][:2]
    assert len(runs["audit"][1]) == 56  # 55 reports and summary.json
    assert runs["audit"][2] == ""
    assert runs["verify"][2] == "verify: 55 bounds match pinned verdicts on enumerate(n=6)\n"


@pytest.mark.parametrize("argv", [["--out", ""]], ids=["flag"])
def test_empty_out_is_usage_error(capsys, monkeypatch, tmp_path, argv):
    """An empty directory name would mean the current directory."""
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "audit", "--enumerate", "4", "--bounds", "T1L", *argv)
    assert (code, out) == (EXIT_USAGE, "")
    assert err == "error: --out must name a directory, got ''\n"
    assert list(tmp_path.iterdir()) == []


def test_unwritable_out_fails_before_the_audit(capsys, tmp_path):
    taken = tmp_path / "taken"
    taken.write_text("")
    code, out, err = run(capsys, "audit", "--enumerate", "4", "--out", str(taken))
    assert (code, out) == (EXIT_IO, "")
    assert err.startswith(f"error: cannot write reports to {taken}: ")


@pytest.mark.parametrize("source", [["--enumerate", "8", "--allow-n8"], ["--file", "pop.g6"]],
                         ids=["enumerate", "file"])
def test_unwritable_out_fails_before_any_graph_is_built(capsys, monkeypatch, tmp_path,
                                                        source):
    def refuse(*args, **kwargs):
        raise AssertionError("the population was built before --out was checked")

    monkeypatch.setattr(cli, "enumerate_connected", refuse)
    monkeypatch.setattr(cli, "read_population", refuse)
    monkeypatch.chdir(tmp_path)
    taken = tmp_path / "taken"
    taken.write_text("")
    code, out, err = run(capsys, "audit", *source, "--out", str(taken))
    assert (code, out) == (EXIT_IO, "")
    assert err.startswith(f"error: cannot write reports to {taken}: ")


@pytest.mark.parametrize("argv", [
    ["--enumerate", "4", "--bounds", "nonsense"],
    ["--enumerate", "8"],
    ["--enumerate", "1"],
    ["--enumerate", "4", "--file", "pop.g6"],
    ["--file", "missing.g6", "--bounds", "nonsense"],
], ids=["bounds", "cap", "order", "two-sources", "bounds-before-file"])
def test_usage_errors_leave_no_out_directory(capsys, tmp_path, argv):
    """Every usage check runs before ``--out`` is created and before any
    graph is built or read, so an unreadable file with a bad ``--bounds``
    is a usage error too."""
    out_dir = tmp_path / "reports"
    code, out, _ = run(capsys, "audit", *argv, "--out", str(out_dir))
    assert (code, out) == (EXIT_USAGE, "")
    assert not out_dir.exists()


def test_file_and_enumerated_populations_share_one_filter(capsys, tmp_path):
    from degbound.enumeration import connected_graphs

    graphs = connected_graphs(6)
    assert len(graphs) == 112
    pop = tmp_path / "n6.g6"
    pop.write_text("".join(to_graph6(g) + "\n" for g in graphs))
    docs = []
    for source in (["--file", str(pop)], ["--enumerate", "6"]):
        code, out, err = run(capsys, "audit", *source, "--min-degree", "2", "--molecular",
                             "--format", "json")
        assert code == EXIT_OK, err
        docs.append(json.loads(out))
    assert [d.pop("population") for d in docs] == [
        "file(n6.g6)", "enumerate(n=6, delta_min=2, molecular)"]
    for doc in docs:
        for report in doc["reports"]:
            report.pop("population")
    assert docs[0] == docs[1]
    assert docs[0]["reports"][0]["counts"]["checked"] > 0


def test_verify_matches_pinned_expectations(capsys):
    for n in (2, 3, 4, 5):
        code, _, err = run(capsys, "verify", "--enumerate", str(n))
        assert code == EXIT_OK, err


def test_verify_full_enumerations_match_pins(capsys):
    for n, opt_in in ((6, []), (7, []), (8, ["--allow-n8"])):
        code, out, err = run(capsys, "verify", "--enumerate", str(n), *opt_in,
                             "--format", "json")
        assert code == EXIT_OK, err
        doc = json.loads(out)
        violated = [r["bound_id"] for r in doc["reports"]
                    if r["verdict"] == "violated"]
        assert violated == ["T7-(21)U"]


def test_verify_star_file_population(capsys, tmp_path):
    from degbound.graphs import star_graph

    pop = tmp_path / "stars.g6"
    pop.write_text("".join(to_graph6(star_graph(k)) + "\n"
                           for k in range(2, 13)))
    exp = tmp_path / "exp.json"
    exp.write_text(json.dumps({"verdicts": {"T6L": "confirmed_sharp"}}))
    code, out, err = run(capsys, "verify", "--file", str(pop), "--bounds",
                         "T6L", "--expected", str(exp), "--format", "json")
    assert code == EXIT_OK, err
    report = json.loads(out)["reports"][0]
    assert report["equality_witnesses"] == [to_graph6(star_graph(8))]


def test_verify_bounds_subset_and_paren_free_ids(capsys):
    code, _, err = run(capsys, "verify", "--enumerate", "5",
                       "--bounds", "T1L,T1U,T7-21U")
    assert code == EXIT_OK, err


def test_verify_detects_mismatch(capsys, tmp_path):
    expected = {"schema_version": 1, "verdicts": {"T1L": "confirmed_sharp"}}
    path = tmp_path / "expected.json"
    path.write_text(json.dumps(expected))
    # at n=5 the population has no P2, so T1L cannot be confirmed sharp
    code, _, err = run(capsys, "verify", "--enumerate", "5", "--bounds", "T1L",
                       "--expected", str(path))
    assert code == EXIT_MISMATCH
    assert "MISMATCH T1L" in err


def test_verify_missing_expectation_entry(capsys, tmp_path):
    path = tmp_path / "expected.json"
    path.write_text(json.dumps({"verdicts": {}}))
    code, _, err = run(capsys, "verify", "--enumerate", "4", "--bounds", "T1L",
                       "--expected", str(path))
    assert code == EXIT_MISMATCH


@pytest.mark.parametrize("doc", [
    {"schema_version": 1},
    [{"verdicts": {"T1L": "holds"}}],
    {"verdicts": [["T1L", "holds"]]},
])
def test_verify_expectation_without_verdicts_object_is_io_error(capsys, tmp_path, doc):
    path = tmp_path / "expected.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", "--enumerate", "4", "--bounds", "T1L",
                         "--expected", str(path))
    assert code == EXIT_IO
    assert out == ""
    assert err == f'error: bad expectation file {path}: no "verdicts" object\n'


def test_repeated_bound_ids_are_kept_once(capsys):
    code, out, _ = run(capsys, "audit", "--enumerate", "4", "--bounds", "T1L,t1l,T1U,T1L",
                       "--format", "json")
    assert code == EXIT_OK
    assert [r["bound_id"] for r in json.loads(out)["reports"]] == ["T1L", "T1U"]
    code, _, err = run(capsys, "verify", "--enumerate", "4", "--bounds", "T1L,T1L")
    assert code == EXIT_OK
    assert err.startswith("verify: 1 bounds match")


def test_verify_usage_and_io_errors(capsys, tmp_path):
    code, _, _ = run(capsys, "verify")
    assert code == EXIT_USAGE
    code, _, _ = run(capsys, "verify", "--enumerate", "4", "--file", "x.g6")
    assert code == EXIT_USAGE
    code, _, _ = run(capsys, "verify", "--enumerate", "4", "--bounds", "NOPE")
    assert code == EXIT_USAGE
    code, _, _ = run(capsys, "verify", "--enumerate", "12")
    assert code == EXIT_USAGE
    code, _, _ = run(capsys, "verify", "--enumerate", "4", "--min-degree", "2")
    assert code == EXIT_USAGE  # filtered population needs --expected
    code, _, _ = run(capsys, "verify", "--file", str(tmp_path / "missing.g6"),
                     "--expected", str(tmp_path / "missing.json"))
    assert code == EXIT_IO
    bad = tmp_path / "bad.g6"
    bad.write_text("NOT&VALID\n")
    exp = tmp_path / "exp.json"
    exp.write_text(json.dumps({"verdicts": {}}))
    code, _, _ = run(capsys, "verify", "--file", str(bad), "--expected", str(exp))
    assert code == EXIT_IO


def test_bad_numeric_input_is_usage_error(capsys):
    code, out, err = run(capsys, "audit", "--enumerate", "3", "--min-degree", "-1")
    assert code == EXIT_USAGE, out
    assert err.startswith("error: --min-degree must be")


def test_tol_is_an_unrecognized_argument(capsys):
    """The verdict tolerance is a constant, not a setting."""
    code, out, err = run(capsys, "audit", "--enumerate", "3", "--tol", "1e-6")
    assert (code, out) == (EXIT_USAGE, "")
    assert "unrecognized arguments: --tol 1e-6" in err


@pytest.mark.parametrize("name, value", [("DEGBOUND_TOL", "nan"), ("DEGBOUND_FORMAT", "xml"),
                                         ("DEGBOUND_OUT", None)],
                         ids=["DEGBOUND_TOL", "DEGBOUND_FORMAT", "DEGBOUND_OUT"])
def test_tol_variable_changes_nothing(capsys, monkeypatch, tmp_path, name, value):
    """Flags and constants are the only settings: the tolerance, format and
    report directory variables are ignored (``DEGBOUND_OUT`` names an empty
    directory that stays empty)."""
    argv = ("audit", "--enumerate", "5")
    unset = run(capsys, *argv)
    assert unset[0] == EXIT_OK
    monkeypatch.setenv(name, value or str(tmp_path))
    assert run(capsys, *argv) == unset
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("order", ["-1", "0", "1", "8", "12"])
def test_enumeration_order_out_of_range_is_usage_error(capsys, order):
    code, out, err = run(capsys, "audit", "--enumerate", order)
    assert code == EXIT_USAGE, out
    assert err.startswith("error: enumeration") or err.startswith("error: order")


@pytest.mark.parametrize("order", ["1", "8", "9"])
def test_verify_reports_the_audit_order_error(capsys, order):
    """``verify`` refuses an order exactly as ``audit`` does: outside the
    enumeration's range, or order 8 without ``--allow-n8``."""
    audit = run(capsys, "audit", "--enumerate", order)
    assert audit[0] == EXIT_USAGE
    if order != "8":
        assert audit[2].startswith("error: enumeration")
    assert run(capsys, "verify", "--enumerate", order) == audit


def test_packaged_pins_cover_every_enumerated_order():
    """One pin file per order the enumeration runs, each listing the catalog
    ids in catalog order, so ``verify --enumerate N`` has pins for every N."""
    from degbound.bounds import builtin_catalog
    from degbound.enumeration import MAX_ORDER

    data = Path(cli.__file__).parent / "data"
    names = sorted(p.name for p in data.glob("*.json"))
    assert names == sorted(f"expected_enumerate_n{n}.json" for n in range(2, MAX_ORDER + 1))
    ids = [b.bound_id for b in builtin_catalog()]
    for name in names:
        assert list(json.loads((data / name).read_text())["verdicts"]) == ids, name


def test_order_8_without_opt_in_names_the_flag(capsys):
    code, out, err = run(capsys, "audit", "--enumerate", "8")
    assert (code, out) == (EXIT_USAGE, "")
    assert err == ("error: order 8 is above the default cap 7 and takes 5-6 seconds; "
                   "pass --allow-n8 to run it\n")


def test_order_8_with_opt_in_runs(capsys):
    code, out, err = run(capsys, "audit", "--enumerate", "8", "--allow-n8",
                         "--bounds", "T6L", "--format", "json")
    assert (code, err) == (EXIT_OK, "")
    doc = json.loads(out)
    assert doc["population"] == "enumerate(n=8)"
    (report,) = doc["reports"]
    assert report["counts"]["checked"] == 11117
    assert report["verdict"] == "holds_not_sharp_in_population"


def test_population_file_trailing_comment(capsys, tmp_path):
    path = tmp_path / "pop.g6"
    path.write_text("Bw # triangle\n")
    code, out, err = run(capsys, "compute", "--file", str(path), "--format", "json")
    assert code == EXIT_OK, err
    assert json.loads(out)["rows"][0]["graph6"] == "Bw"
    code, out, err = run(capsys, "audit", "--file", str(path), "--bounds", "T2U",
                         "--format", "json")
    assert code == EXIT_OK, err
    assert json.loads(out)["reports"][0]["equality_witnesses"] == ["Bw"]


@pytest.mark.parametrize("command", ["audit", "verify"])
@pytest.mark.parametrize("text", ["", "# a comment\n\n"], ids=["empty", "comment-only"])
def test_population_file_without_graphs_is_io_error(capsys, tmp_path, command, text):
    pop = tmp_path / "pop.g6"
    pop.write_text(text)
    exp = tmp_path / "exp.json"
    exp.write_text(json.dumps({"verdicts": {}}))
    expected = ["--expected", str(exp)] if command == "verify" else []
    code, out, err = run(capsys, command, "--file", str(pop), *expected)
    assert code == EXIT_IO
    assert out == ""
    assert err == f"error: {pop}: no graphs found\n"


@pytest.mark.parametrize("command", ["compute", "audit", "verify"])
def test_population_file_not_utf8_is_io_error(capsys, tmp_path, command):
    pop = tmp_path / "pop.g6"
    pop.write_bytes(b"\xff\xfe")
    exp = tmp_path / "exp.json"
    exp.write_text(json.dumps({"verdicts": {}}))
    expected = ["--expected", str(exp)] if command == "verify" else []
    code, out, err = run(capsys, command, "--file", str(pop), *expected)
    assert code == EXIT_IO, err
    assert out == ""
    assert err.startswith(f"error: cannot read {pop}: 'utf-8' codec can't decode")


def test_expectation_file_not_utf8_is_io_error(capsys, tmp_path):
    exp = tmp_path / "exp.json"
    exp.write_bytes(b"\xff\xfe")
    code, out, err = run(capsys, "verify", "--enumerate", "3", "--expected", str(exp))
    assert code == EXIT_IO, err
    assert out == ""
    assert err.startswith(f"error: cannot read {exp}: ")


def _cli_env(**extra):
    """The environment of a ``python -m degbound.cli`` subprocess that
    imports this checkout's package."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(__file__).resolve().parent.parent / "src"),
                    env.get("PYTHONPATH")) if p)
    env.update(extra)
    return env


def _run_cli(args, env, *python_flags):
    return subprocess.run([sys.executable, *python_flags, "-m", "degbound.cli", *args],
                          capture_output=True, env=env, timeout=120)


BOM = b"\xef\xbb\xbf"


@pytest.mark.parametrize("kind, text, code", [
    ("population", "# café population\nBw\n".encode("utf-8"), EXIT_OK),
    ("population", "# café population\nBw\n".encode("latin-1"), EXIT_IO),
    ("population", BOM + "# café population\nBw\n".encode("utf-8"), EXIT_OK),
    ("edges", BOM + b"3\n0 1\n1 2\n", EXIT_OK),
    ("expected", BOM + b'{"verdicts": {"T1L": "holds_not_sharp_in_population"}}\n', EXIT_OK),
], ids=["utf-8", "latin-1", "bom-population", "bom-edges", "bom-expected"])
def test_population_file_reads_as_utf8_in_every_locale(tmp_path, kind, text, code):
    """Input files are UTF-8 whatever the locale: a comment outside ASCII
    reads alike under the C and the C.UTF-8 locale, and a file that is not
    UTF-8 is an I/O error under both.  A leading byte-order mark is skipped,
    so the file reads as it does without one."""
    path = tmp_path / "input"
    path.write_bytes(text)
    argv = {
        "population": ["audit", "--file", str(path), "--bounds", "T1L"],
        "edges": ["compute", "--file", str(path)],
        "expected": ["verify", "--enumerate", "3", "--bounds", "T1L", "--expected", str(path)],
    }[kind]
    runs = [_run_cli(argv, _cli_env(LC_ALL=locale, PYTHONCOERCECLOCALE="0", PYTHONUTF8="0"))
            for locale in ("C", "C.UTF-8")]
    for proc in runs:
        assert proc.returncode == code, proc.stderr
    assert runs[0].stdout == runs[1].stdout
    assert (runs[0].stdout == b"") == (code == EXIT_IO)
    if text.startswith(BOM):
        path.write_bytes(text[len(BOM):])
        plain = _run_cli(argv, _cli_env())
        assert (plain.returncode, plain.stdout, plain.stderr) == (
            runs[1].returncode, runs[1].stdout, runs[1].stderr)


@pytest.mark.parametrize("command", ["verify-enumerate", "audit-file", "verify-file",
                                     "compute-edges"])
def test_no_text_file_is_opened_in_the_locale_encoding(tmp_path, command):
    """Every file the CLI reads or writes names its encoding, so
    ``-X warn_default_encoding`` with EncodingWarning as an error passes."""
    pop = tmp_path / "pop.g6"
    pop.write_text("Bw\n", encoding="utf-8")
    exp = tmp_path / "exp.json"
    exp.write_text(json.dumps({"verdicts": {"T1L": "holds_not_sharp_in_population"}}),
                   encoding="utf-8")
    edges = tmp_path / "p3.edges"
    edges.write_text("3\n0 1\n1 2\n", encoding="utf-8")
    args = {
        "verify-enumerate": ["verify", "--enumerate", "4", "--out", str(tmp_path / "out")],
        "audit-file": ["audit", "--file", str(pop)],
        "verify-file": ["verify", "--file", str(pop), "--bounds", "T1L",
                        "--expected", str(exp)],
        "compute-edges": ["compute", "--file", str(edges)],
    }[command]
    proc = _run_cli(args, _cli_env(), "-X", "warn_default_encoding",
                    "-W", "error::EncodingWarning")
    assert proc.returncode == EXIT_OK, proc.stderr


def test_population_filtered_to_nothing_is_vacuous(capsys, tmp_path):
    pop = tmp_path / "pop.g6"
    pop.write_text("Bw\n")  # the triangle: delta 2
    code, out, err = run(capsys, "audit", "--file", str(pop), "--min-degree", "3",
                         "--bounds", "T1L", "--format", "json")
    assert code == EXIT_OK, err
    assert json.loads(out)["reports"][0]["verdict"] == "vacuous"


def test_jobs_is_an_unrecognized_argument(capsys):
    code, out, err = run(capsys, "audit", "--enumerate", "5", "--jobs", "2")
    assert (code, out) == (EXIT_USAGE, "")
    assert "unrecognized arguments: --jobs 2" in err


def test_closed_stdout_exits_quietly():
    # about 110 kB of table, more than a pipe holds, so the writer meets the
    # closed pipe
    proc = subprocess.Popen(
        [sys.executable, "-m", "degbound.cli", "families", "--max-n", "200"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_cli_env())
    assert proc.stdout.readline().startswith(b"family")
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert err == b""
    assert proc.returncode == EXIT_PIPE == 141


def test_verify_file_population(capsys, tmp_path):
    pop = tmp_path / "pop.g6"
    pop.write_text("Bw\nBg\n")
    exp = tmp_path / "exp.json"
    exp.write_text(json.dumps({"verdicts": {"T2L": "holds_not_sharp_in_population"}}))
    code, _, err = run(capsys, "verify", "--file", str(pop), "--bounds", "T2L",
                       "--expected", str(exp))
    assert code == EXIT_OK, err


# ---------------------------------------------------------------------------
# determinism and format parity


def test_reports_byte_identical_across_runs(capsys):
    args = ("audit", "--enumerate", "5", "--format", "json")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def _summary_payload_from_csv(text):
    rows = list(csv.DictReader(io.StringIO(text)))
    out = {}
    for r in rows:
        out[r["bound_id"]] = {
            "verdict": r["verdict"],
            "counts": tuple(int(r[k]) for k in
                            ("checked", "skipped", "holds", "equality", "violated")),
            "min_margin": float(r["min_margin"]) if r["min_margin"] else None,
            "equality_witnesses": r["equality_witnesses"].split(";") if r["equality_witnesses"] else [],
            "violation_witnesses": r["violation_witnesses"].split(";") if r["violation_witnesses"] else [],
        }
    return out


def _summary_payload_from_json(text):
    doc = json.loads(text)
    out = {}
    for r in doc["reports"]:
        out[r["bound_id"]] = {
            "verdict": r["verdict"],
            "counts": tuple(r["counts"][k] for k in
                            ("checked", "skipped", "holds", "equality", "violated")),
            "min_margin": r["min_margin"]["value"] if r["min_margin"] else None,
            "equality_witnesses": r["equality_witnesses"],
            "violation_witnesses": r["violation_witnesses"],
        }
    return out


def test_csv_json_payload_parity(capsys):
    _, out_json, _ = run(capsys, "audit", "--enumerate", "5", "--format", "json")
    _, out_csv, _ = run(capsys, "audit", "--enumerate", "5", "--format", "csv")
    assert _summary_payload_from_json(out_json) == _summary_payload_from_csv(out_csv)


@pytest.mark.parametrize("argv, header", [
    (["compute", "--g6", "Bw"], "graph6,n,m,delta,Delta,regular,chi,R,H,ABC,X,GA,AZI,M2*"),
    (["families", "--max-n", "3"],
     "family,param,n,m,R,H,ABC,X,GA,AZI,M2*,max_rel_dev,agrees"),
    (["proofs", "--n", "4"], "verdict,claim,observed"),
    (["audit", "--enumerate", "3", "--bounds", "T1L"],
     "bound_id,verdict,checked,skipped,holds,equality,violated,min_margin,"
     "equality_witnesses,violation_witnesses"),
], ids=["compute", "families", "proofs", "audit"])
def test_csv_header_order(capsys, argv, header):
    """Each row builder fixes its command's column order."""
    code, out, _ = run(capsys, *argv, "--format", "csv")
    assert code == EXIT_OK
    assert out.splitlines()[0] == header


def test_compute_csv_json_parity(capsys):
    _, out_json, _ = run(capsys, "compute", "--family", "cycle:6",
                         "--format", "json")
    _, out_csv, _ = run(capsys, "compute", "--family", "cycle:6",
                        "--format", "csv")
    jrow = json.loads(out_json)["rows"][0]
    crow = next(csv.DictReader(io.StringIO(out_csv)))
    for key in ("R", "H", "ABC", "X", "GA", "AZI", "M2*"):
        assert float(crow[key]) == jrow[key]

"""CLI surface: exit codes, certificate files, tables, determinism."""

import json

import pytest

from semlab import cli
from semlab.cli import main
from semlab.graphs import parse_graph6
from semlab.labelings import Labeling, recheck_sem_certificate
from semlab.search import SearchBudgetExceeded
from semlab.sidon import recheck_infinity_certificate

C3 = "Bw"
C4 = "Cl"  # cycle order 0-1-2-3-0
K7 = "F~~~w"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerify:
    def test_c3_ok(self, capsys):
        code, out, _ = run(capsys, "verify", "--graph6", C3, "--labels", "1,2,3")
        assert code == 0
        assert "k=9" in out

    def test_c4_duplicate_sums(self, capsys):
        code, out, _ = run(capsys, "verify", "--graph6", C4, "--labels", "1,2,3,4")
        assert code == 2
        assert "duplicate" in out.lower()

    def test_malformed_graph6(self, capsys):
        code, _, err = run(capsys, "verify", "--graph6", "\x01", "--labels", "1")
        assert code == 64

    def test_json_mode(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--graph6", C3, "--labels", "1,2,3", "--json"
        )
        assert code == 0
        data = json.loads(out)
        assert data["valid"] and data["k"] == 9

    def test_verify_with_isolates(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--graph6", C4, "--labels", "1,3,2,5", "--isolated", "1"
        )
        assert code == 0


class TestDeficiency:
    def test_c4_finite_one(self, capsys):
        code, out, _ = run(capsys, "deficiency", "--graph6", C4, "--cap", "2")
        assert code == 0
        assert "finite 1" in out

    def test_k7_infinite(self, capsys):
        code, out, _ = run(capsys, "deficiency", "--graph6", K7, "--cap", "1")
        assert code == 0
        assert "infinite" in out

    def test_c4_cap_zero_unknown(self, capsys):
        code, out, _ = run(capsys, "deficiency", "--graph6", C4, "--cap", "0")
        assert code == 3
        assert "unknown (cap 0)" in out

    def test_c4_cap_zero_json_reason(self, capsys):
        code, out, _ = run(capsys, "deficiency", "--graph6", C4, "--cap", "0", "--json")
        assert code == 3
        assert json.loads(out) == {
            "kind": "unknown", "reason": "cap", "searched_cap": 0, "lower": 1,
        }

    def test_budget_exhaustion_names_the_extra(self, capsys):
        # Counting refutes extra 0 before any node; the extra-1 witness
        # takes 795 nodes, more than the limit.
        argv = ["deficiency", "--family", "prism", "--params", "8", "--cap", "3",
                "--node-limit", "500"]
        code, out, _ = run(capsys, *argv)
        assert code == 3
        assert out.strip() == (
            "deficiency: unknown (budget ran out at extra 1; deficiency >= 1)"
        )
        code, out, _ = run(capsys, *argv, "--json")
        assert code == 3
        assert json.loads(out) == {
            "kind": "unknown", "reason": "budget", "searched_cap": 1, "lower": 1,
        }

    def test_witness_file_revalidates_via_cli(self, capsys, tmp_path):
        cert_file = tmp_path / "cert.json"
        code, _, _ = run(
            capsys,
            "deficiency", "--graph6", C4, "--cap", "2", "--out", str(cert_file),
        )
        assert code == 0
        code, out, _ = run(capsys, "verify", "--graph6", C4, "--cert", str(cert_file))
        assert code == 0
        assert "valid" in out

    def test_witness_file_revalidates_standalone(self, capsys, tmp_path):
        cert_file = tmp_path / "cert.json"
        run(capsys, "deficiency", "--graph6", C4, "--cap", "2", "--out", str(cert_file))
        data = json.loads(cert_file.read_text())
        assert recheck_sem_certificate(parse_graph6(C4), data) is not None

    def test_infinity_file_revalidates(self, capsys, tmp_path):
        cert_file = tmp_path / "inf.json"
        code, _, _ = run(
            capsys,
            "deficiency", "--graph6", K7, "--cap", "0", "--out", str(cert_file),
        )
        assert code == 0
        data = json.loads(cert_file.read_text())
        assert recheck_infinity_certificate(parse_graph6(K7), data) is not None
        code, out, _ = run(capsys, "verify", "--graph6", K7, "--cert", str(cert_file))
        assert code == 0

    def test_float_field_and_non_object_are_invalid(self, capsys, tmp_path):
        cert_file = tmp_path / "inf.json"
        run(capsys, "deficiency", "--graph6", K7, "--cap", "0", "--out", str(cert_file))
        data = json.loads(cert_file.read_text())
        for bad in ({**data, "q": data["q"] + 0.9}, 7):
            cert_file.write_text(json.dumps(bad))
            code, out, _ = run(capsys, "verify", "--graph6", K7, "--cert", str(cert_file))
            assert code == 2
            assert "malformed certificate" in out


class TestEngineslCommands:
    def test_strength(self, capsys):
        code, out, _ = run(capsys, "strength", "--family", "cycle", "--params", "3")
        assert code == 0 and "strength: 5" in out

    def test_alpha_found(self, capsys):
        code, out, _ = run(capsys, "alpha", "--family", "cycle", "--params", "4")
        assert code == 0 and "boundary" in out

    def test_alpha_negative(self, capsys):
        code, out, _ = run(capsys, "alpha", "--family", "cycle", "--params", "3")
        assert code == 1

    def test_harmonious(self, capsys):
        code, out, _ = run(capsys, "harmonious", "--graph6", C3)
        assert code == 0

    def test_sequential(self, capsys):
        code, out, _ = run(capsys, "sequential", "--graph6", "A_")
        assert code == 0

    @pytest.mark.parametrize(
        "command,engine,graph,bad",
        [
            # On C4, 0,4,2,3 is graceful with boundary 2, and 0,1,2,3 is not
            # graceful; on C3, 0,1,3 is graceful with no boundary at all.
            ("alpha", "find_alpha_valuation", C4, Labeling((0, 4, 2, 3), 1)),
            ("alpha", "find_alpha_valuation", C4, Labeling((0, 4, 2, 3))),
            ("alpha", "find_alpha_valuation", C4, Labeling((0, 1, 2, 3), 0)),
            ("alpha", "find_alpha_valuation", C3, Labeling((0, 1, 3))),
            ("harmonious", "find_harmonious", C4, Labeling((0, 1, 2, 3))),
            ("harmonious", "find_harmonious", C4, Labeling((0, 0, 1, 2))),
            ("sequential", "find_sequential", C4, Labeling((0, 1, 2, 4))),
        ],
    )
    def test_witness_failing_its_verifier_is_not_reported(
        self, capsys, tmp_path, monkeypatch, command, engine, graph, bad
    ):
        monkeypatch.setattr(cli, engine, lambda g, budget: bad)
        out_file = tmp_path / "o.json"
        code, out, _ = run(capsys, command, "--graph6", graph, "--out", str(out_file))
        assert code == 2 and out.startswith("invalid: ")
        assert not out_file.exists()
        code, out, _ = run(capsys, command, "--graph6", graph, "--json")
        assert code == 2 and json.loads(out)["valid"] is False

    def test_rho_star(self, capsys):
        code, out, _ = run(capsys, "rho-star", "--n", "6")
        assert code == 0 and "19" in out

    def test_budget_exhaustion_exit(self, capsys):
        code, _, err = run(
            capsys,
            "rho-star", "--n", "10", "--node-limit", "10",
        )
        assert code == 3

    def test_certify_infinite_positive(self, capsys):
        code, out, _ = run(
            capsys, "certify-infinite", "--family", "complete-minus-alpha",
            "--params", "21,2",
        )
        assert code == 0
        assert out.count("infinite deficiency") == 2

    def test_certify_infinite_negative(self, capsys):
        code, out, _ = run(capsys, "certify-infinite", "--graph6", C4)
        assert code == 1
        assert "NOT implied" in out

    def test_witness_lower_bound(self, capsys):
        code, out, _ = run(capsys, "witness-lower-bound", "--n", "5")
        assert code == 0
        assert "gap 0" in out

    def test_usage_errors(self, capsys):
        code, _, err = run(capsys, "verify", "--graph6", C3)
        assert code == 64
        code, _, err = run(capsys, "deficiency", "--graph6", C3, "--file", "x")
        assert code == 64
        code, _, _ = run(capsys, "tables", "--what", "nonsense")
        assert code == 64
        code, _, _ = run(capsys, "strength", "--family", "custom")
        assert code == 64

    def test_certify_infinite_out_needs_one_graph(self, capsys, tmp_path, monkeypatch):
        # Refused before any certificate search, and no file is written.
        monkeypatch.setattr(cli, "certify_infinite_deficiency", _forbidden_search)
        out_file = tmp_path / "x.json"
        argv = ["certify-infinite", "--family", "complete-minus-alpha", "--params", "21,2"]
        code, out, err = run(capsys, *argv, "--out", str(out_file))
        assert (code, out) == (64, "")
        assert err == "usage error: certify-infinite --out needs exactly one graph, got 2\n"
        assert not out_file.exists()

    def test_verify_refuses_labels_with_cert(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "verify_sem", _forbidden_search)
        monkeypatch.setattr(cli, "recheck_sem_certificate", _forbidden_search)
        cert_file = tmp_path / "cert.json"
        run(capsys, "deficiency", "--graph6", C4, "--cap", "2", "--out", str(cert_file))
        code, out, err = run(
            capsys, "verify", "--graph6", C4, "--labels", "1,2,3,4", "--cert", str(cert_file)
        )
        assert (code, out) == (64, "")
        assert err == "usage error: give --labels or --cert, not both\n"


def _no_labeling(g, max_label, budget):
    return None


def _out_of_budget(g, max_label, budget):
    raise SearchBudgetExceeded("node limit exceeded")


def _forbidden_search(*args):
    raise AssertionError("survey-trees must not run this search")


class TestSurvey:
    def test_rows_for_max_n_four(self, capsys, tmp_path):
        out_file = tmp_path / "survey.csv"
        code, _, err = run(
            capsys, "survey-trees", "--max-n", "4", "--out", str(out_file)
        )
        assert code == 0
        lines = out_file.read_text().strip().split("\n")
        header, rows = lines[0], lines[1:]
        assert header.startswith("tree_id,order,is_caterpillar,sem,strength")
        # one nontrivial tree each at orders 2 and 3, two at order 4
        assert len(rows) == 4
        assert all(",finite0," in row for row in rows)
        assert "expectations verified" in err

    def test_order_seven_strengths(self, capsys, tmp_path):
        out_file = tmp_path / "survey.csv"
        code, _, _ = run(
            capsys, "survey-trees", "--max-n", "7", "--out", str(out_file)
        )
        assert code == 0
        rows = out_file.read_text().strip().split("\n")[1:]
        order7 = [r.split(",") for r in rows if r.split(",")[1] == "7"]
        assert len(order7) == 11
        assert all(r[4] == "8" for r in order7)
        assert all(r[8] == "0" for r in order7)  # slack column

    def test_max_n_beyond_enumeration_limit(self, capsys):
        code, _, err = run(capsys, "survey-trees", "--max-n", "15")
        assert code == 64

    def test_max_n_one_empty(self, capsys, tmp_path):
        out_file = tmp_path / "survey.csv"
        code, _, _ = run(
            capsys, "survey-trees", "--max-n", "1", "--out", str(out_file)
        )
        assert code == 0
        assert out_file.read_text().strip().split("\n")[1:] == []

    def test_byte_identical_reruns(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(capsys, "survey-trees", "--max-n", "6", "--out", str(a))
        run(capsys, "survey-trees", "--max-n", "6", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize(
        "search,sem,code,message",
        [
            # A proof that a tree is not SEM refutes the conjecture.
            (_no_labeling, "none", 2, "EXPECTATION VIOLATED"),
            (_out_of_budget, "unknown", 0, "expectations verified"),
        ],
    )
    def test_sem_column_tells_proof_from_budget(
        self, capsys, tmp_path, monkeypatch, search, sem, code, message
    ):
        monkeypatch.setattr(cli, "find_sem_labeling", search)
        out_file = tmp_path / "survey.csv"
        got, _, err = run(
            capsys, "survey-trees", "--max-n", "4", "--out", str(out_file)
        )
        assert got == code
        assert message in err
        rows = [r.split(",") for r in out_file.read_text().strip().split("\n")[1:]]
        assert len(rows) == 4
        # (harmonious, sequential) follow sem: a tree with no SEM labeling
        # has no sequential one either, and says nothing about harmonious.
        columns = {"none": ("unknown", "false"), "unknown": ("unknown", "unknown")}[sem]
        assert all((r[3], r[6], r[7]) == (sem, *columns) for r in rows)

    def test_columns_come_from_the_sem_witness(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "find_harmonious", _forbidden_search)
        monkeypatch.setattr(cli, "find_sequential", _forbidden_search)
        out_file = tmp_path / "survey.csv"
        code, _, _ = run(
            capsys, "survey-trees", "--max-n", "6", "--out", str(out_file)
        )
        assert code == 0
        rows = [r.split(",") for r in out_file.read_text().strip().split("\n")[1:]]
        assert len(rows) == 13
        assert all(r[5:8] == ["true"] * 3 for r in rows)


class TestTables:
    def test_prism_table(self, capsys):
        code, out, _ = run(capsys, "tables", "--what", "prism", "--n-min", "4", "--n-max", "12")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("n,lower,upper,old_upper,exact,status")
        row8 = next(ln for ln in lines if ln.startswith("8,"))
        assert row8.split(",")[1:6] == ["1", "9", "11", "1", "exact"]
        row12 = next(ln for ln in lines if ln.startswith("12,"))
        assert row12.split(",")[1:6] == ["1", "13", "17", "1", "exact"]
        # Every even n of the range is decided by search.
        assert all(ln.split(",")[5] == "exact" for ln in lines[1:])

    def test_rho_table(self, capsys):
        code, out, _ = run(capsys, "tables", "--what", "rho-star", "--n-min", "2", "--n-max", "9")
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 9
        row7 = next(ln for ln in lines if ln.startswith("7,"))
        assert row7.split(",")[1:3] == ["30", "28"]

    def test_l_bounds_table(self, capsys):
        code, out, _ = run(capsys, "tables", "--what", "l-bounds", "--n-min", "4", "--n-max", "8")
        assert code == 0
        lines = out.strip().split("\n")
        row5 = next(ln for ln in lines if ln.startswith("5,"))
        assert row5.split(",")[1:3] == ["10", "10"]

    def test_deterministic(self, capsys):
        _, out1, _ = run(capsys, "tables", "--what", "prism")
        _, out2, _ = run(capsys, "tables", "--what", "prism")
        assert out1 == out2


def _dumps(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


SEM_C3 = {"order": 3, "isolated": 0, "labels": [1, 2, 3], "sums": [3, 4, 5], "s": 3, "k": 9}
SEM_C4 = {"order": 4, "isolated": 1, "labels": [1, 3, 2, 5, 4], "sums": [4, 5, 6, 7],
          "s": 4, "k": 13}
INF_K7 = {"clique": [0, 1, 2, 3, 4, 5, 6], "m": 7, "q": 21, "rho_lower": 30, "source": "exact"}
ALPHA_D4 = {"found": True, "labels": [0, 4, 2, 12, 6, 3, 10, 1], "boundary": 3}
WITNESS_5 = {"n": 5, "graph6": "Dv{", "size": 9, "labels": [1, 2, 3, 4, 7],
             "sums": [3, 4, 5, 6, 7, 8, 9, 10, 11], "gap": 0}
SURVEY_4 = (
    "tree_id,order,is_caterpillar,sem,strength,strength_matches,harmonious,sequential,"
    "conjecture3_slack\n"
    "n2-000,2,true,finite0,3,true,true,true,0\n"
    "n3-000,3,true,finite0,4,true,true,true,0\n"
    "n4-000,4,true,finite0,5,true,true,true,0\n"
    "n4-001,4,true,finite0,5,true,true,true,0\n"
)
PRISM_3_4 = (
    "n,lower,upper,old_upper,exact,status,provenance\n"
    "3,0,0,,0,exact,odd cycle: exactly zero\n"
    '4,5,5,5,5,exact,"bracket [1, n+1]; previous bound 3n/2-1 when 4 | n; exact by search"\n'
)
NOT_IMPLIED = "no certificate (finiteness is NOT implied)"

# argv, exit code, stdout, stderr, and the --out file (o.json / o.csv), or
# None where the call must write none.
PINNED = [
    (["verify", "--graph6", C3, "--labels", "1,2,3"], 0,
     "super edge-magic: s=3 k=9 sums 3..5\n", "", None),
    (["verify", "--graph6", C3, "--labels", "1,2,3", "--json"], 0,
     _dumps({"valid": True, **SEM_C3}), "", None),
    (["verify", "--graph6", C3, "--labels", "1,2,3", "--out", "o.json"], 0,
     "super edge-magic: s=3 k=9 sums 3..5\n", "", _dumps(SEM_C3)),
    (["verify", "--graph6", C4, "--labels", "1,2,3,4", "--out", "o.json"], 2,
     "invalid: duplicate edge sums in (3, 5, 5, 7)\n", "", None),
    (["verify", "--graph6", C4, "--labels", "1,2,3,4", "--json"], 2,
     _dumps({"valid": False, "reason": "duplicate edge sums in (3, 5, 5, 7)"}), "", None),
    (["verify", "--graph6", C4, "--cert", "sem.json", "--out", "o.json"], 0,
     "valid certificate: s=4 k=13\n", "", _dumps(SEM_C4)),
    (["verify", "--graph6", C4, "--cert", "sem.json", "--json"], 0,
     _dumps({"valid": True, "kind": "sem", **SEM_C4}), "", None),
    (["verify", "--graph6", K7, "--cert", "inf.json"], 0,
     "valid infinite-deficiency certificate: clique 7, bound 30 > size 21\n", "", None),
    (["verify", "--graph6", K7, "--cert", "inf.json", "--out", "o.json"], 0,
     "valid infinite-deficiency certificate: clique 7, bound 30 > size 21\n", "",
     _dumps(INF_K7)),
    (["verify", "--graph6", K7, "--cert", "inf.json", "--json"], 0,
     _dumps({"valid": True, "kind": "infinite", **INF_K7}), "", None),
    (["verify", "--graph6", C3, "--cert", "sem.json"], 2,
     "invalid: certificate order 4 != graph order 3\n", "", None),
    (["verify", "--graph6", C3, "--cert", "sem.json", "--out", "o.json"], 2,
     "invalid: certificate order 4 != graph order 3\n", "", None),
    (["verify", "--graph6", C3], 64, "", "usage error: verify needs --labels or --cert\n", None),
    (["deficiency", "--graph6", C4, "--cap", "2", "--out", "o.json"], 0,
     "deficiency: finite 1\n", "", _dumps(SEM_C4)),
    (["deficiency", "--graph6", C4, "--cap", "2", "--json"], 0,
     _dumps({"kind": "finite", "value": 1, "witness": SEM_C4}), "", None),
    (["deficiency", "--graph6", K7, "--cap", "1", "--out", "o.json"], 0,
     "deficiency: infinite (clique 7, bound 30 > size 21)\n", "", _dumps(INF_K7)),
    (["deficiency", "--graph6", K7, "--cap", "1", "--json"], 0,
     _dumps({"kind": "infinite", "certificate": INF_K7}), "", None),
    (["deficiency", "--graph6", C4, "--cap", "0", "--out", "o.json"], 3,
     "deficiency: unknown (cap 0)\n", "", None),
    (["deficiency", "--graph6", C4, "--cap", "0", "--json"], 3,
     _dumps({"kind": "unknown", "reason": "cap", "searched_cap": 0, "lower": 1}), "", None),
    (["deficiency", "--family", "prism", "--params", "8", "--cap", "3", "--node-limit", "500"],
     3, "deficiency: unknown (budget ran out at extra 1; deficiency >= 1)\n", "", None),
    (["strength", "--family", "prism", "--params", "4"], 0, "strength: 11\n", "", None),
    (["strength", "--family", "prism", "--params", "4", "--json"], 0,
     _dumps({"strength": 11}), "", None),
    (["alpha", "--family", "prism", "--params", "4", "--out", "o.json"], 0,
     "boundary-valuation: labels 0,4,2,12,6,3,10,1 boundary 3\n", "", _dumps(ALPHA_D4)),
    (["alpha", "--family", "prism", "--params", "4", "--json"], 0, _dumps(ALPHA_D4), "", None),
    (["alpha", "--family", "cycle", "--params", "3", "--out", "o.json"], 1,
     "no boundary-valuation exists\n", "", None),
    (["alpha", "--family", "cycle", "--params", "3", "--json"], 1,
     _dumps({"found": False}), "", None),
    (["harmonious", "--graph6", C3, "--out", "o.json"], 0, "harmonious labeling: 0,1,2\n", "",
     _dumps({"found": True, "labels": [0, 1, 2]})),
    (["harmonious", "--graph6", C3, "--json"], 0,
     _dumps({"found": True, "labels": [0, 1, 2]}), "", None),
    (["harmonious", "--graph6", C4], 1, "no harmonious labeling exists\n", "", None),
    (["harmonious", "--graph6", C4, "--json"], 1, _dumps({"found": False}), "", None),
    (["sequential", "--graph6", "A_", "--out", "o.json"], 0, "sequential labeling: 0,1\n", "",
     _dumps({"found": True, "labels": [0, 1]})),
    (["sequential", "--graph6", "A_", "--json"], 0,
     _dumps({"found": True, "labels": [0, 1]}), "", None),
    (["sequential", "--graph6", C4], 1, "no sequential labeling exists\n", "", None),
    (["rho-star", "--n", "6"], 0, "rho-star(6) = 19\n", "", None),
    (["rho-star", "--n", "6", "--json"], 0, _dumps({"n": 6, "rho_star": 19}), "", None),
    (["rho-star", "--n", "10", "--node-limit", "10"], 3, "",
     "budget exhausted: node limit exceeded after 11 nodes\n", None),
    (["certify-infinite", "--graph6", K7, "--out", "o.json"], 0,
     "F~~~w: infinite deficiency (clique 7, bound 30 > size 21)\n", "", _dumps(INF_K7)),
    (["certify-infinite", "--graph6", K7, "--json"], 0,
     _dumps({"graph": K7, "certified": True, **INF_K7}), "", None),
    (["certify-infinite", "--graph6", C4, "--out", "o.json"], 1, f"Cl: {NOT_IMPLIED}\n", "",
     None),
    (["certify-infinite", "--family", "tree-enumeration", "--params", "4"], 1,
     f"Ck: {NOT_IMPLIED}\nCs: {NOT_IMPLIED}\n", "", None),
    (["certify-infinite", "--family", "tree-enumeration", "--params", "4", "--json"], 1,
     _dumps([{"graph": "Ck", "certified": False}, {"graph": "Cs", "certified": False}]), "",
     None),
    (["witness-lower-bound", "--n", "5", "--out", "o.json"], 0,
     "order 5 size 9 witness Dv{: sums 3..11 gap 0\n", "", _dumps(WITNESS_5)),
    (["witness-lower-bound", "--n", "5", "--json"], 0, _dumps(WITNESS_5), "", None),
    (["survey-trees", "--max-n", "4"], 0, SURVEY_4,
     "survey: 4 trees; expectations verified for all 4 fully-decided rows\n", None),
    (["survey-trees", "--max-n", "4", "--out", "o.csv"], 0, "",
     "survey: 4 trees; expectations verified for all 4 fully-decided rows\n", SURVEY_4),
    (["tables", "--what", "prism", "--n-min", "3", "--n-max", "4"], 0, PRISM_3_4, "", None),
    (["tables", "--what", "prism", "--n-min", "3", "--n-max", "4", "--out", "o.csv"], 0, "",
     "", PRISM_3_4),
    (["tables", "--what", "rho-star", "--n-min", "2", "--n-max", "3"], 0,
     "n,exact,kotzig,provenance\n"
     "2,1,,exact search; quadratic bound shown for n >= 7\n"
     "3,3,,exact search; quadratic bound shown for n >= 7\n", "", None),
    (["tables", "--what", "l-bounds", "--n-min", "4", "--n-max", "5"], 0,
     "n,lower,upper,upper_alpha,status,provenance\n"
     "4,7,,,complete,lower: witness construction; upper: clique certificates\n"
     "5,10,10,0,complete,lower: witness construction; upper: clique certificates\n", "", None),
]


@pytest.mark.parametrize(
    "argv,code,stdout,stderr,saved", PINNED, ids=[" ".join(case[0]) for case in PINNED]
)
def test_pinned_bytes(capsys, tmp_path, monkeypatch, argv, code, stdout, stderr, saved):
    # Exact bytes of stdout, stderr and the --out file, not substrings.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sem.json").write_text(_dumps(SEM_C4))
    (tmp_path / "inf.json").write_text(_dumps(INF_K7))
    assert run(capsys, *argv) == (code, stdout, stderr)
    out_files = [p for p in (tmp_path / "o.json", tmp_path / "o.csv") if p.exists()]
    assert [p.read_text() for p in out_files] == ([] if saved is None else [saved])

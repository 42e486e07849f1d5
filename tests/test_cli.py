"""CLI surface: exit codes, certificate files, tables, determinism."""

import json

import pytest

from semlab import cli
from semlab.cli import main
from semlab.graphs import parse_graph6
from semlab.labelings import recheck_sem_certificate
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
        argv = ["deficiency", "--family", "prism", "--params", "8", "--cap", "3",
                "--node-limit", "1000"]
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
        assert row8.split(",")[1:4] == ["1", "9", "11"]
        row12 = next(ln for ln in lines if ln.startswith("12,"))
        assert row12.split(",")[1:4] == ["1", "13", "17"]

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

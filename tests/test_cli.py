import json
from pathlib import Path

import domminor.extraction as ex
from domminor.cli import main
from domminor.generators import cycle, two_k2
from domminor.graphs import emit_edge_list, emit_graph6

GRAPHS3 = Path(__file__).parent / "data" / "graphs3.g6"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out.strip()
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out.splitlines()[-1])


class TestAnalyze:
    def test_c5(self, capsys):
        code, obj = run_json(capsys, "analyze", "Dhc")
        assert code == 0
        assert obj["n"] == 5 and obj["m"] == 5
        assert obj["chi"] == 3 and obj["omega"] == 2 and obj["alpha"] == 2
        assert obj["is_2k2_free"] is True and obj["is_split"] is False
        assert obj["found_patterns"]["c5"] is not None
        assert obj["found_patterns"]["two_k2"] is None

    def test_found_patterns_pinned(self, capsys):
        # every witness, its role names and their order, on the t-graph and on C6
        pins = {
            "FhewG": '{"two_k2": null, "c4": {"c0": 0, "c1": 1, "c2": 2, "c3": 5}, '
            '"c5": {"c0": 0, "c1": 1, "c2": 2, "c3": 3, "c4": 4}, '
            '"banner": {"b1": 0, "b2": 1, "b3": 2, "b": 5, "bp": 6}}',
            "EhEG": '{"two_k2": {"a1": 0, "a2": 1, "b1": 3, "b2": 4}, "c4": null, "c5": null, "banner": null}',
        }
        for g6, want in pins.items():
            code, obj = run_json(capsys, "analyze", g6)
            assert code == 0 and json.dumps(obj["found_patterns"]) == want

    def test_k2(self, capsys):
        code, obj = run_json(capsys, "analyze", "A_")
        assert code == 0 and obj["n"] == 2 and obj["m"] == 1
        assert obj["chi"] == 2 and obj["omega"] == 2

    def test_malformed_input(self, capsys):
        code, obj = run_json(capsys, "analyze", "!!!")
        assert code == 1
        assert obj["schema"] == "domminor/error/v1"

    def test_non_integer_edge_list(self, capsys):
        code, obj = run_json(capsys, "analyze", "--format", "edges", "x 1")
        assert code == 1
        assert obj["schema"] == "domminor/error/v1" and "non-integer" in obj["error"]

    def test_g6_cap_bounds_both_formats(self, capsys):
        for argv in (["--format", "edges", "513 0"], ["--g6-cap", "4", "5 0"], ["--g6-cap", "4", "Dhc"]):
            code, obj = run_json(capsys, "analyze", *argv)
            assert code == 1 and "above cap" in obj["error"]
        code, obj = run_json(capsys, "analyze", "--g6-cap", "600", "600 0")
        assert code == 0 and obj["n"] == 600

    def test_edge_list_file(self, capsys, tmp_path):
        p = tmp_path / "g.edges"
        p.write_text(emit_edge_list(cycle(5)))
        code, obj = run_json(capsys, "analyze", "--file", str(p))
        assert code == 0 and obj["chi"] == 3

    def test_plain_output(self, capsys):
        code, out = run(capsys, "--plain", "analyze", "Dhc")
        assert code == 0 and "chi=3" in out


class TestExtract:
    def test_c5_dominating(self, capsys):
        code, obj = run_json(capsys, "extract", "Dhc")
        assert code == 0
        assert obj["verdict"] == "valid"
        assert obj["model"] == [[0, 1, 2], [3], [4]]

    def test_c5_ordinary(self, capsys):
        code, obj = run_json(capsys, "extract", "--mode", "ordinary", "Dhc")
        assert code == 0 and len(obj["model"]) == 3

    def test_2k2_rejected_with_witness(self, capsys):
        code, obj = run_json(capsys, "extract", emit_graph6(two_k2()))
        assert code == 1
        assert obj["witness"] == [0, 1, 2, 3]

    def test_c5_cap_exit_1(self, capsys, monkeypatch):
        monkeypatch.setattr(ex, "DEFAULT_C5_CAP", 0)
        code, obj = run_json(capsys, "extract", "Dhc")
        assert code == 1
        assert obj == {"schema": "domminor/error/v1", "error": "more than 0 induced C5 embeddings (extraction.DEFAULT_C5_CAP)"}

    def test_trace_file(self, capsys, tmp_path):
        path = tmp_path / "trace.jsonl"
        code, _ = run_json(capsys, "extract", "Dhc", "--trace", str(path))
        assert code == 0
        events = [json.loads(ln) for ln in path.read_text().splitlines()]
        assert any(e["branch"] == "y_empty" for e in events)

    def test_ordinary_trace_file(self, capsys, tmp_path):
        path = tmp_path / "trace.jsonl"
        code, _ = run_json(capsys, "extract", "--mode", "ordinary", "Dhc", "--trace", str(path))
        assert code == 0
        events = [json.loads(ln) for ln in path.read_text().splitlines()]
        assert [e["branch"] for e in events] == ["clique", "p4_removal"]

    def test_unwritable_trace_exit_1(self, capsys, tmp_path):
        code, obj = run_json(capsys, "extract", "C~", "--trace", str(tmp_path / "no" / "t.jsonl"))
        assert code == 1
        assert obj["schema"] == "domminor/error/v1" and "cannot write trace" in obj["error"]

    def test_unwritable_trace_keeps_the_extraction_error(self, capsys, tmp_path):
        code, obj = run_json(
            capsys, "extract", emit_graph6(two_k2()), "--trace", str(tmp_path / "no" / "t.jsonl")
        )
        assert code == 1
        assert obj["witness"] == [0, 1, 2, 3] and "trace" not in obj["error"]

    def test_extract_then_verify_round_trip(self, capsys):
        code, obj = run_json(capsys, "extract", "Dhc")
        assert code == 0
        code2, obj2 = run_json(
            capsys, "verify", "Dhc", "--model", json.dumps(obj["model"])
        )
        assert code2 == 0 and obj2["valid"] is True


class TestVerify:
    def test_valid_model(self, capsys):
        code, obj = run_json(capsys, "verify", "Dhc", "--model", "[[0,1,2],[3],[4]]")
        assert code == 0 and obj["valid"] is True

    def test_invalid_order(self, capsys):
        code, obj = run_json(capsys, "verify", "Dhc", "--model", "[[4],[3],[0,1,2]]")
        assert code == 2
        assert obj["condition"] == "domination"
        assert (obj["set_index"], obj["other_index"], obj["witness"]) == (1, 3, 1)

    def test_overlapping_model(self, capsys):
        code, obj = run_json(capsys, "verify", "Dhc", "--model", "[[0,1],[1,2]]")
        assert code == 2 and obj["condition"] == "disjoint"

    def test_ordinary_flag(self, capsys):
        code, obj = run_json(
            capsys, "verify", "Dhc", "--ordinary", "--model", "[[4],[3],[0,1,2]]"
        )
        assert code == 0 and obj["valid"] is True

    def test_malformed_model(self, capsys):
        code, obj = run_json(capsys, "verify", "Dhc", "--model", "[[0,")
        assert code == 1 and "malformed model JSON" in obj["error"]

    def test_non_models_exit_1(self, capsys):
        # a dict's keys, a bool read as vertex 1 and a negative shift are
        # not models
        for text in ("{}", "[[true]]", "[[-1]]", "[1]", '"ab"', "[[1.0]]"):
            code, obj = run_json(capsys, "verify", "C~", "--model", text)
            assert code == 1 and "malformed model JSON" in obj["error"], text

    def test_empty_model_is_valid(self, capsys):
        code, obj = run_json(capsys, "verify", "C~", "--model", "[]")
        assert code == 0 and obj["valid"] is True


class TestHd:
    def test_c5(self, capsys):
        code, obj = run_json(capsys, "hd", "Dhc")
        assert code == 0 and obj["hd"] == 3
        assert obj["witness"] == [[0, 1, 2], [3], [4]]

    def test_capacity_exit_1(self, capsys):
        code, obj = run_json(capsys, "gen", "path", "20")
        code, obj = run_json(capsys, "hd", obj["graph6"])
        assert code == 1 and "cap" in obj["error"]

    def test_empty_graph_exit_1(self, capsys):
        code, obj = run_json(capsys, "hd", "?")
        assert code == 1
        assert obj["schema"] == "domminor/error/v1" and "empty graph" in obj["error"]


class TestGen:
    def test_subdivision(self, capsys):
        code, obj = run_json(capsys, "gen", "one-subdivision-complete", "4")
        assert code == 0 and obj["n"] == 10

    def test_round_trips_through_analyze(self, capsys):
        code, obj = run_json(capsys, "gen", "petersen")
        code2, obj2 = run_json(capsys, "analyze", obj["graph6"])
        assert code2 == 0 and obj2["n"] == 10 and obj2["chi"] == 3

    def test_seed_required_for_random(self, capsys):
        code, obj = run_json(capsys, "gen", "2k2-free", "10", "0.3")
        assert code == 1 and "--seed" in obj["error"]

    def test_seeded_random_reproducible(self, capsys):
        a = run_json(capsys, "gen", "2k2-free", "10", "0.3", "--seed", "5")
        b = run_json(capsys, "gen", "2k2-free", "10", "0.3", "--seed", "5")
        assert a == b

    def test_unknown_family(self, capsys):
        code, obj = run_json(capsys, "gen", "moebius")
        assert code == 1

    def test_gnp_p_out_of_range_exit_1(self, capsys):
        code, obj = run_json(capsys, "gen", "gnp", "5", "1.5", "--seed", "1")
        assert code == 1
        assert obj["schema"] == "domminor/error/v1" and "[0, 1]" in obj["error"]

    def test_2k2_free_p_out_of_range_exit_1(self, capsys):
        code, obj = run_json(capsys, "gen", "2k2-free", "5", "-0.5", "--seed", "1")
        assert code == 1
        assert obj["schema"] == "domminor/error/v1" and "[0, 1]" in obj["error"]

    def test_non_numeric_p_exit_1(self, capsys):
        code, obj = run_json(capsys, "gen", "gnp", "5", "x", "--seed", "1")
        assert code == 1
        assert obj["schema"] == "domminor/error/v1" and "number p" in obj["error"]

    def test_non_integer_n_exit_1(self, capsys):
        code, obj = run_json(capsys, "gen", "gnp", "3.5", ".5", "--seed", "1")
        assert code == 1
        assert obj["schema"] == "domminor/error/v1" and "integer n" in obj["error"]

    def test_non_integer_family_parameter_exit_1(self, capsys):
        code, obj = run_json(capsys, "gen", "cycle", "x")
        assert code == 1
        assert obj == {"schema": "domminor/error/v1", "error": "family 'cycle' takes integer parameters, got 'x'"}

    def test_non_integer_part_size_exit_1(self, capsys):
        code, obj = run_json(capsys, "gen", "complete-multipartite", "2", "x")
        assert code == 1
        assert obj["schema"] == "domminor/error/v1"
        assert "'complete-multipartite'" in obj["error"] and "'x'" in obj["error"]


class TestConvert:
    def test_to_edges_and_back(self, capsys, tmp_path):
        code, obj = run_json(capsys, "convert", "Dhc", "--to", "edges")
        assert code == 0 and obj["output"].startswith("5 5")
        p = tmp_path / "g.edges"
        p.write_text(obj["output"])
        code2, obj2 = run_json(capsys, "convert", "--file", str(p), "--to", "g6")
        assert code2 == 0 and obj2["output"] == "Dhc"

    def test_to_dot(self, capsys):
        code, obj = run_json(capsys, "convert", "A_", "--to", "dot")
        assert code == 0 and "0 -- 1;" in obj["output"]


class TestHuntCommand:
    def test_hunt_file(self, capsys, tmp_path):
        corpus = tmp_path / "c.g6"
        corpus.write_text("Dhc\nA_\n")
        out = tmp_path / "r.jsonl"
        code, out_text = run(
            capsys, "hunt", "--input", str(corpus), "--output", str(out), "--workers", "1"
        )
        assert code == 0
        summary = json.loads(out_text.splitlines()[-1])
        assert summary["total"] == 2 and summary["verdicts"] == {"holds": 2}
        assert len(out.read_text().splitlines()) == 2

    def test_hunt_records_to_stdout(self, capsys, tmp_path):
        corpus = tmp_path / "c.g6"
        corpus.write_text("Dhc\n")
        code, out_text = run(capsys, "hunt", "--input", str(corpus))
        lines = out_text.splitlines()
        assert code == 0 and len(lines) == 2  # one record + summary
        assert json.loads(lines[0])["verdict"] == "holds"
        assert json.loads(lines[1])["schema"] == "domminor/hunt-summary/v1"

    def test_hunt_missing_input_exit_1(self, capsys, tmp_path):
        code, obj = run_json(capsys, "hunt", "--input", str(tmp_path / "nope.g6"))
        assert code == 1

    def test_hunt_unwritable_output_exit_1(self, capsys, tmp_path):
        code, obj = run_json(
            capsys, "hunt", "--input", str(GRAPHS3), "--output", str(tmp_path / "no" / "r.jsonl")
        )
        assert code == 1
        assert obj["schema"] == "domminor/error/v1" and "cannot write output" in obj["error"]

    def test_hunt_unwritable_checkpoint_exit_1(self, capsys, tmp_path):
        # the checkpoint is first written after the first chunk's records
        out = tmp_path / "r.jsonl"
        code, obj = run_json(
            capsys, "hunt", "--input", str(GRAPHS3), "--output", str(out),
            "--checkpoint", str(tmp_path / "no" / "ck.json"),
        )
        assert code == 1
        assert obj["schema"] == "domminor/error/v1" and "cannot write checkpoint" in obj["error"]
        assert len(out.read_text().splitlines()) == 4

    def test_hunt_checkpoint_without_output_exit_1(self, capsys, tmp_path, monkeypatch):
        class Unread:
            def read(self):
                raise AssertionError("input read before the configuration was refused")

        monkeypatch.setattr("sys.stdin", Unread())
        ckpt = tmp_path / "ck.json"
        code, obj = run_json(capsys, "hunt", "--checkpoint", str(ckpt))
        assert code == 1 and "--output" in obj["error"]
        assert not ckpt.exists()

    def test_hunt_nan_budget_exit_1(self, capsys, tmp_path):
        corpus = tmp_path / "c.g6"
        corpus.write_text("Dhc\n")
        out = tmp_path / "r.jsonl"
        code, obj = run_json(capsys, "hunt", "--input", str(corpus), "--output", str(out), "--budget", "nan")
        assert code == 1
        assert obj["schema"] == "domminor/error/v1" and "time budget" in obj["error"]
        assert not out.exists()

    def test_hunt_resume_without_its_output_exit_1(self, capsys, tmp_path):
        corpus = tmp_path / "c.g6"
        corpus.write_text("Dhc\nA_\n")
        out = tmp_path / "r.jsonl"
        ckpt = tmp_path / "ck.json"
        args = ("hunt", "--input", str(corpus), "--output", str(out), "--checkpoint", str(ckpt))
        assert run(capsys, *args)[0] == 0
        out.unlink()
        code, obj = run_json(capsys, *args)
        assert code == 1 and "counted" in obj["error"]
        assert not out.exists()

    def test_hunt_resume_with_other_checks_exit_1(self, capsys, tmp_path):
        corpus = tmp_path / "c.g6"
        corpus.write_text("Dhc\nA_\n")
        out = tmp_path / "r.jsonl"
        ckpt = tmp_path / "ck.json"
        args = ("hunt", "--input", str(corpus), "--output", str(out), "--checkpoint", str(ckpt))
        assert run(capsys, *args)[0] == 0
        code, obj = run_json(capsys, *args, "--checks", "t3-equivalence")
        assert code == 1 and "checks" in obj["error"]

import json

import pytest

from domminor.exact import has_dominating_kt
from domminor.generators import cycle, one_subdivision_complete, random_gnp
from domminor.graphs import emit_graph6
from domminor.hunt import (
    HuntConfig,
    HuntError,
    check_graph,
    run_hunt,
)

CORPUS = "Dhc\nA_\nC`\n"  # C5, K2, 2K2


def read_records(path):
    recs = [json.loads(ln) for ln in path.read_text().splitlines()]
    return recs


def strip_elapsed(recs):
    return sorted(
        (r["line"], r["graph6"], r["n"], r["chi"], r["verdict"]) for r in recs
    )


@pytest.fixture()
def corpus_file(tmp_path):
    p = tmp_path / "corpus.g6"
    p.write_text(CORPUS)
    return p


class TestCheckGraph:
    def test_c5_holds(self):
        verdict, chi, detail = check_graph(cycle(5), ("dominating-hadwiger",))
        assert verdict == "holds" and chi == 3
        assert detail["dominating-hadwiger"]["dominating_model"] == [[0, 1, 2], [3], [4]]

    def test_all_checks_on_c5(self):
        verdict, chi, detail = check_graph(
            cycle(5), ("dominating-hadwiger", "extraction", "ordinary-minor", "t3-equivalence")
        )
        assert verdict == "holds"
        assert all(d["outcome"] == "ok" for d in detail.values())

    def test_extraction_skipped_on_non_2k2_free(self):
        g = one_subdivision_complete(4)
        verdict, _, detail = check_graph(g, ("extraction",))
        assert verdict == "holds"
        assert detail["extraction"]["outcome"] == "skipped"

    def test_capacity(self):
        g = one_subdivision_complete(6)  # n = 21 > default cap
        verdict, _, detail = check_graph(g, ("dominating-hadwiger",))
        assert verdict == "capacity"

    def test_timeout(self):
        # a dense 16-vertex instance whose full check takes tens of ms
        g = random_gnp(16, 0.65, 9)
        verdict, _, detail = check_graph(
            g, ("dominating-hadwiger",), time_budget_s=0.002
        )
        assert verdict == "timeout"

    def test_counterexample_verdict_shape(self, monkeypatch):
        # no real counterexample is known; force the search outcome to probe
        # the certificate path
        import domminor.hunt as hm

        monkeypatch.setattr(hm, "has_dominating_kt", lambda *a, **k: None)
        verdict, chi, detail = check_graph(cycle(5), ("dominating-hadwiger",))
        assert verdict == "counterexample"
        d = detail["dominating-hadwiger"]
        assert d["chi"] == 3
        assert d["k_minus_one_colorable"] is False
        assert d["dominating_model_found"] is False
        assert len(d["coloring"]) == 5

    def test_original_search_unaffected(self):
        assert has_dominating_kt(cycle(5), 3) is not None

    def test_subdivided_k4_holds_cheaply(self):
        # bipartite, so chi = 2 and any edge gives the dominating model
        verdict, chi, detail = check_graph(one_subdivision_complete(4), ("dominating-hadwiger",))
        assert verdict == "holds" and chi == 2


class TestRunHunt:
    def test_basic_corpus(self, corpus_file, tmp_path):
        out = tmp_path / "records.jsonl"
        cfg = HuntConfig(input_path=str(corpus_file), output_path=str(out))
        summary = run_hunt(cfg)
        assert summary.total == 3
        assert summary.verdicts == {"holds": 3}
        assert summary.exit_code == 0
        recs = read_records(out)
        assert [r["line"] for r in recs] == [1, 2, 3]

    def test_filter_skips_non_2k2_free(self, corpus_file, tmp_path):
        out = tmp_path / "records.jsonl"
        cfg = HuntConfig(
            input_path=str(corpus_file), output_path=str(out), graph_filter="2k2-free"
        )
        summary = run_hunt(cfg)
        assert summary.verdicts == {"holds": 2, "skipped-filter": 1}
        recs = read_records(out)
        assert recs[2]["graph6"] == "C`" and recs[2]["verdict"] == "skipped-filter"

    def test_comments_and_blanks_ignored(self, tmp_path):
        p = tmp_path / "c.g6"
        p.write_text("# header comment\nDhc\n\n# mid\nA_\n")
        out = tmp_path / "r.jsonl"
        summary = run_hunt(HuntConfig(input_path=str(p), output_path=str(out)))
        assert summary.total == 2

    def test_parse_error_recorded_not_fatal(self, tmp_path):
        p = tmp_path / "c.g6"
        p.write_text("Dhc\n!!!bad\nA_\n")
        out = tmp_path / "r.jsonl"
        summary = run_hunt(HuntConfig(input_path=str(p), output_path=str(out)))
        assert summary.total == 3
        assert summary.verdicts["parse-error"] == 1
        assert summary.exit_code == 0

    def test_worker_count_independence(self, tmp_path):
        lines = [emit_graph6(cycle(n)) for n in range(3, 11)] * 3
        p = tmp_path / "c.g6"
        p.write_text("\n".join(lines) + "\n")
        outs = []
        for workers in (1, 2):
            out = tmp_path / f"r{workers}.jsonl"
            run_hunt(
                HuntConfig(input_path=str(p), output_path=str(out), workers=workers)
            )
            outs.append(strip_elapsed(read_records(out)))
        assert outs[0] == outs[1]

    def test_resume_matches_uninterrupted(self, tmp_path):
        lines = [emit_graph6(cycle(n)) for n in (3, 4, 5, 6, 7)] * 8  # 40 lines
        p = tmp_path / "c.g6"
        p.write_text("\n".join(lines) + "\n")

        full_out = tmp_path / "full.jsonl"
        run_hunt(HuntConfig(input_path=str(p), output_path=str(full_out)))

        # interrupted run: process a prefix by truncating the input, keeping
        # the checkpoint, then resuming with the full input
        part_out = tmp_path / "part.jsonl"
        ckpt = tmp_path / "ckpt.json"
        prefix = tmp_path / "prefix.g6"
        prefix.write_text("\n".join(lines[:17]) + "\n")
        s1 = run_hunt(
            HuntConfig(
                input_path=str(prefix), output_path=str(part_out), checkpoint_path=str(ckpt)
            )
        )
        assert s1.total == 17
        s2 = run_hunt(
            HuntConfig(
                input_path=str(p), output_path=str(part_out), checkpoint_path=str(ckpt)
            )
        )
        assert s2.total == 40
        assert strip_elapsed(read_records(part_out)) == strip_elapsed(read_records(full_out))

    def test_resume_discards_partial_tail(self, tmp_path, corpus_file):
        # simulate a crash after records were written but before the
        # checkpoint advanced: the stale tail must be dropped and redone
        out = tmp_path / "r.jsonl"
        ckpt = tmp_path / "ckpt.json"
        ckpt.write_text(json.dumps({"next_line": 2, "output_bytes": 0}))
        out.write_text('{"garbage": true}\n')
        summary = run_hunt(
            HuntConfig(
                input_path=str(corpus_file), output_path=str(out), checkpoint_path=str(ckpt)
            )
        )
        recs = read_records(out)
        assert [r["line"] for r in recs] == [2, 3]
        assert summary.total == 2

    def test_record_stream_mode(self, corpus_file):
        import io

        buf = io.StringIO()
        summary = run_hunt(HuntConfig(input_path=str(corpus_file)), record_stream=buf)
        assert summary.total == 3
        assert len(buf.getvalue().splitlines()) == 3

    def test_config_validation(self):
        with pytest.raises(HuntError):
            HuntConfig(workers=0).validate()
        with pytest.raises(HuntError):
            HuntConfig(checks=("bogus",)).validate()
        with pytest.raises(HuntError):
            HuntConfig(checks=()).validate()
        with pytest.raises(HuntError):
            HuntConfig(time_budget_s=-1.0).validate()
        with pytest.raises(HuntError):
            HuntConfig(graph_filter="planar").validate()

    def test_checkpoint_requires_output_path(self, corpus_file, tmp_path):
        import io

        ckpt = tmp_path / "ck.json"
        cfg = HuntConfig(input_path=str(corpus_file), checkpoint_path=str(ckpt))
        with pytest.raises(HuntError, match="output"):
            run_hunt(cfg, record_stream=io.StringIO())
        assert not ckpt.exists()

    def test_unreadable_input(self, tmp_path):
        with pytest.raises(HuntError, match="cannot read input"):
            run_hunt(HuntConfig(input_path=str(tmp_path / "missing.g6")))

    def test_counterexample_exit_code_and_recheck(self, corpus_file, tmp_path, monkeypatch):
        import domminor.hunt as hm

        monkeypatch.setattr(hm, "has_dominating_kt", lambda *a, **k: None)
        out = tmp_path / "r.jsonl"
        summary = run_hunt(HuntConfig(input_path=str(corpus_file), output_path=str(out)))
        assert summary.exit_code == 2
        assert summary.verdicts["counterexample"] == 3
        assert summary.counterexamples == ["Dhc", "A_", "C`"]
        recs = read_records(out)
        assert all(r["detail"]["rechecked"] for r in recs)

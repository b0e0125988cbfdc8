import hashlib
import json
from collections import Counter
from pathlib import Path

import pytest

from domminor.exact import SearchDeadlineExceeded, has_dominating_kt
from domminor.generators import complete, cycle, one_subdivision_complete, random_gnp
from domminor.graphs import emit_graph6
from domminor.hunt import (
    HuntConfig,
    HuntError,
    check_graph,
    run_hunt,
)

CORPUS = "Dhc\nA_\nC`\n"  # C5, K2, 2K2
ALL_CHECKS = ("dominating-hadwiger", "extraction", "ordinary-minor", "t3-equivalence")
DATA = Path(__file__).parent / "data"


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

    def test_non_ascii_line_is_a_parse_error(self, tmp_path):
        p = tmp_path / "c.g6"
        p.write_text("Dh\u00e9\n", encoding="utf-8")
        out = tmp_path / "r.jsonl"
        summary = run_hunt(HuntConfig(input_path=str(p), output_path=str(out)))
        assert summary.verdicts == {"parse-error": 1}
        (rec,) = read_records(out)
        assert rec["verdict"] == "parse-error" and "non-ASCII" in rec["detail"]["error"]

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


class TestSharedFacts:
    def count_calls(self, monkeypatch, *names, fail_first=()):
        """Count calls to hunt's own bindings of the named functions; those in
        ``fail_first`` run out of time on their first call."""
        import domminor.hunt as hm

        calls = Counter()

        def counted(name, fn):
            def wrapper(*a, **k):
                calls[name] += 1
                if name in fail_first and calls[name] == 1:
                    raise SearchDeadlineExceeded()
                return fn(*a, **k)

            return wrapper

        for name in names:
            monkeypatch.setattr(hm, name, counted(name, getattr(hm, name)))
        return calls

    def test_one_kernel_run_per_fact(self, monkeypatch):
        # the extractors' root chi and 2K2 test are the facts' own (both
        # extractors used to recompute them); K4 is P4-free and connected,
        # so every chi is of the whole graph
        import domminor.exact as em
        import domminor.patterns as pm

        runs = Counter()
        for module, name in ((em, "_dsatur_greedy"), (pm, "_scan_2k2")):
            def counted(*a, _fn=getattr(module, name), _name=name):
                runs[_name] += 1
                return _fn(*a)

            monkeypatch.setattr(module, name, counted)
        verdict, chi, detail = check_graph(complete(4), ALL_CHECKS)
        assert (verdict, chi) == ("holds", 4)
        assert all(d["outcome"] == "ok" for d in detail.values())
        assert runs == {"_dsatur_greedy": 1, "_scan_2k2": 1}

    def test_timed_out_fact_is_retried_by_the_next_check(self, monkeypatch):
        calls = self.count_calls(monkeypatch, "chromatic_number", fail_first=("chromatic_number",))
        verdict, chi, detail = check_graph(cycle(5), ("dominating-hadwiger", "extraction"))
        assert detail["dominating-hadwiger"] == {"outcome": "timeout", "check": "dominating-hadwiger"}
        assert detail["extraction"] == {"outcome": "ok", "chi": 3, "sets": 3}
        assert (verdict, chi) == ("timeout", 3)
        assert calls == {"chromatic_number": 2}

    def test_capacity_outcome_carries_no_chi(self):
        g = one_subdivision_complete(6)  # n = 21 > default cap
        verdict, chi, detail = check_graph(g, ("dominating-hadwiger", "t3-equivalence"))
        assert (verdict, chi) == ("capacity", None)
        assert all("chi" not in d for d in detail.values())

    def test_filter_witness_is_shared_with_the_checks(self, monkeypatch, tmp_path):
        # the 2K2 filter's test is the one the extraction check reads
        corpus = tmp_path / "small.g6"
        corpus.write_text("".join((DATA / f"graphs{n}.g6").read_text() for n in range(7)))
        import domminor.patterns as pm

        scans = Counter()

        def counted(*a, _fn=pm._scan_2k2):
            scans["_scan_2k2"] += 1
            return _fn(*a)

        monkeypatch.setattr(pm, "_scan_2k2", counted)
        summary = run_hunt(
            HuntConfig(
                input_path=str(corpus), output_path=str(tmp_path / "r.jsonl"),
                checks=("extraction",), graph_filter="2k2-free",
            )
        )
        assert summary.verdicts == {"holds": 146, "skipped-filter": 63}
        assert scans == {"_scan_2k2": 209}


class TestPinnedRecords:
    # md5 of every record (minus elapsed_ms, keys sorted) of a hunt with all
    # four checks over the atlas graphs with n <= 7, pinned from the
    # implementation that ran the checks through an if-chain, each one
    # computing its own chi and 2K2 test
    DIGEST = "ad8dd1ff00bca9db2ab1945188d147f9"

    @pytest.mark.parametrize("workers", [1, 2])
    def test_atlas_records_digest(self, tmp_path, workers):
        corpus = tmp_path / "atlas.g6"
        corpus.write_text("".join((DATA / f"graphs{n}.g6").read_text() for n in range(8)))
        out = tmp_path / "r.jsonl"
        summary = run_hunt(
            HuntConfig(input_path=str(corpus), output_path=str(out), checks=ALL_CHECKS, workers=workers)
        )
        assert summary.total == 1253 and summary.verdicts == {"holds": 1253}
        h = hashlib.md5()
        for rec in read_records(out):
            del rec["elapsed_ms"]
            h.update((json.dumps(rec, sort_keys=True) + "\n").encode())
        assert h.hexdigest() == self.DIGEST


class TestCheckpointRefusals:
    LINES = [emit_graph6(cycle(n)) for n in (3, 4, 5, 6, 7)] * 8  # 40 lines

    def interrupted(self, tmp_path):
        """A checkpointed run over the first 17 lines; returns (full input,
        output, checkpoint) for a resume."""
        full = tmp_path / "c.g6"
        full.write_text("\n".join(self.LINES) + "\n")
        prefix = tmp_path / "prefix.g6"
        prefix.write_text("\n".join(self.LINES[:17]) + "\n")
        out = tmp_path / "r.jsonl"
        ckpt = tmp_path / "ckpt.json"
        run_hunt(HuntConfig(input_path=str(prefix), output_path=str(out), checkpoint_path=str(ckpt)))
        return full, out, ckpt

    def test_checkpoint_holds_the_fingerprint(self, tmp_path):
        _, _, ckpt = self.interrupted(tmp_path)
        data = json.loads(ckpt.read_text())
        consumed = "".join(ln + "\n" for ln in self.LINES[:17]).encode()
        assert data == {
            "next_line": 18,
            "output_bytes": data["output_bytes"],
            "checks": ["dominating-hadwiger"],
            "graph_filter": None,
            "exact_cap": 16,
            "time_budget_s": 60.0,
            "input_sha256": hashlib.sha256(consumed).hexdigest(),
        }

    @pytest.mark.parametrize("damage", ["delete", "halve"])
    def test_refuses_output_shorter_than_checkpointed(self, tmp_path, damage):
        full, out, ckpt = self.interrupted(tmp_path)
        if damage == "delete":
            out.unlink()
        else:
            out.write_bytes(out.read_bytes()[: out.stat().st_size // 2])
        kept = out.read_bytes() if out.exists() else None
        cfg = HuntConfig(input_path=str(full), output_path=str(out), checkpoint_path=str(ckpt))
        with pytest.raises(HuntError, match="counted"):
            run_hunt(cfg)
        assert (out.read_bytes() if out.exists() else None) == kept

    @pytest.mark.parametrize(
        "field, value",
        [
            ("checks", ("t3-equivalence",)),
            ("graph_filter", "2k2-free"),
            ("exact_cap", 12),
            ("time_budget_s", 5.0),
        ],
    )
    def test_refuses_other_settings(self, tmp_path, field, value):
        full, out, ckpt = self.interrupted(tmp_path)
        before = out.read_bytes()
        cfg = HuntConfig(input_path=str(full), output_path=str(out), checkpoint_path=str(ckpt), **{field: value})
        with pytest.raises(HuntError, match=field):
            run_hunt(cfg)
        assert out.read_bytes() == before

    def test_refuses_other_consumed_input(self, tmp_path):
        full, out, ckpt = self.interrupted(tmp_path)
        lines = list(self.LINES)
        lines[3] = emit_graph6(cycle(8))  # inside the consumed prefix
        full.write_text("\n".join(lines) + "\n")
        cfg = HuntConfig(input_path=str(full), output_path=str(out), checkpoint_path=str(ckpt))
        with pytest.raises(HuntError, match="input_sha256"):
            run_hunt(cfg)

    def test_accepts_other_input_after_the_consumed_prefix(self, tmp_path):
        full, out, ckpt = self.interrupted(tmp_path)
        lines = list(self.LINES)
        lines[17] = emit_graph6(cycle(8))  # first line the resume reads
        full.write_text("\n".join(lines) + "\n")
        cfg = HuntConfig(input_path=str(full), output_path=str(out), checkpoint_path=str(ckpt))
        assert run_hunt(cfg).total == 40
        assert read_records(out)[17]["n"] == 8

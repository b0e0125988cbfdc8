import contextlib
import gc
import hashlib
import io
import json
import os
import pickle
import signal
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

import domminor.hunt as hm
import domminor.extraction as ex
from domminor.exact import SearchDeadlineExceeded, has_dominating_kt, model_to_lists
from domminor.generators import complete, cycle, one_subdivision_complete, random_gnp
from domminor.graphs import emit_graph6, from_edge_list
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
        # the timeout comes from chi, not from the minor search: unbudgeted,
        # chi of this G(55, 1/2) takes ~0.4 s, ~190 times the budget (the
        # 55 vertices are over the search cap, so no minor search follows)
        g = random_gnp(55, 0.5, 1)
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

    def test_self_contradicting_record_is_internal_error(self, monkeypatch):
        # a (chi - 1)-colouring refutes chi itself, so the record is never a
        # counterexample
        import domminor.hunt as hm

        monkeypatch.setattr(hm, "has_dominating_kt", lambda *a, **k: None)
        monkeypatch.setattr(hm, "_k_colorable", lambda g, k, deadline: [0, 1, 0, 1, 1])
        verdict, chi, detail = check_graph(cycle(5), ("dominating-hadwiger",))
        assert verdict == "internal-error" and chi == 3
        d = detail["dominating-hadwiger"]
        assert d["outcome"] == "inconsistent"
        assert d["k_minus_one_colorable"] is True
        assert d["k_minus_one_coloring"] == [0, 1, 0, 1, 1]
        # it outranks a counterexample from another check
        monkeypatch.setattr(hm, "has_kt_minor", lambda *a, **k: True)
        verdict, _, _ = check_graph(cycle(5), ("t3-equivalence", "dominating-hadwiger"))
        assert verdict == "internal-error"

    def test_original_search_unaffected(self):
        assert has_dominating_kt(cycle(5), 3) is not None

    def test_subdivided_k4_holds_cheaply(self):
        # bipartite, so chi = 2 and any edge gives the dominating model
        verdict, chi, detail = check_graph(one_subdivision_complete(4), ("dominating-hadwiger",))
        assert verdict == "holds" and chi == 2


class TestRunHunt:
    def test_config_survives_pickle(self):
        # every chunk sent to a worker carries the config
        cfg = HuntConfig(checks=ALL_CHECKS, graph_filter="2k2-free", workers=2, time_budget_s=None, exact_cap=12)
        back = pickle.loads(pickle.dumps(cfg))
        assert type(back) is HuntConfig and back == cfg
        back.validate()

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
        ckpt.write_text(json.dumps({
            "next_line": 2, "output_bytes": 0, "checks": ["dominating-hadwiger"], "graph_filter": None,
            "exact_cap": 16, "time_budget_s": 60.0, "input_sha256": hashlib.sha256(b"Dhc\n").hexdigest(),
        }))
        out.write_text('{"garbage": true}\n')
        summary = run_hunt(
            HuntConfig(
                input_path=str(corpus_file), output_path=str(out), checkpoint_path=str(ckpt)
            )
        )
        recs = read_records(out)
        assert [r["line"] for r in recs] == [2, 3]
        assert summary.total == 2

    def test_record_stream_mode(self, corpus_file, capsys):
        summary = run_hunt(HuntConfig(input_path=str(corpus_file)))
        assert summary.total == 3
        assert len(capsys.readouterr().out.splitlines()) == 3

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

    def test_search_cap_must_not_be_negative(self):
        # a negative cap would mark every graph "capacity" and exit 0
        with pytest.raises(HuntError, match="search cap"):
            HuntConfig(exact_cap=-1).validate()
        HuntConfig(exact_cap=0).validate()

    def test_budget_must_be_a_positive_number(self):
        # NaN fails every comparison, so "budget <= 0" let it through and it
        # silently turned the deadline off; an infinite budget stays allowed
        with pytest.raises(HuntError, match="time budget"):
            HuntConfig(time_budget_s=float("nan")).validate()
        HuntConfig(time_budget_s=float("inf")).validate()

    def test_checkpoint_requires_output_path(self, corpus_file, tmp_path):
        ckpt = tmp_path / "ck.json"
        cfg = HuntConfig(input_path=str(corpus_file), checkpoint_path=str(ckpt))
        with pytest.raises(HuntError, match="output"):
            run_hunt(cfg)
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

    @pytest.mark.parametrize("failure", ["raises", "one_set_short"])
    def test_extractor_failure_is_a_rechecked_counterexample(self, corpus_file, tmp_path, monkeypatch, failure):
        # an extractor that raises, or returns fewer than chi sets, refutes
        # its own contract on a 2K2-free graph: C5 and K2 here (2K2 is skipped)
        real = hm.extract_dominating

        def broken(g):
            if failure == "raises":
                raise ex.ExtractionError(f"no model on {g.n} vertices")
            return real(g)[:-1]

        monkeypatch.setattr(hm, "extract_dominating", broken)
        out = tmp_path / "r.jsonl"
        summary = run_hunt(HuntConfig(input_path=str(corpus_file), output_path=str(out), checks=("extraction",)))
        assert summary.exit_code == 2
        assert summary.verdicts == {"counterexample": 2, "holds": 1}
        assert summary.counterexamples == ["Dhc", "A_"]
        recs = read_records(out)
        for rec, (g, chi) in zip(recs, ((cycle(5), 3), (complete(2), 2))):
            if failure == "raises":
                info = {"outcome": "violated", "error": f"no model on {g.n} vertices"}
            else:
                info = {"outcome": "violated", "chi": chi, "model": model_to_lists(real(g)[:-1])}
            assert rec["verdict"] == "counterexample"
            assert rec["detail"] == {"extraction": info, "rechecked": True}
        assert recs[2]["detail"]["extraction"]["outcome"] == "skipped"

    def test_internal_error_exit_code(self, corpus_file, tmp_path, monkeypatch):
        import domminor.hunt as hm

        monkeypatch.setattr(hm, "has_dominating_kt", lambda *a, **k: None)
        monkeypatch.setattr(hm, "_k_colorable", lambda g, k, deadline: [0] * g.n)
        out = tmp_path / "r.jsonl"
        summary = run_hunt(HuntConfig(input_path=str(corpus_file), output_path=str(out)))
        assert summary.exit_code == 1
        assert summary.verdicts == {"internal-error": 3}
        assert summary.counterexamples == []
        assert {r["verdict"] for r in read_records(out)} == {"internal-error"}


class TestInputDecoding:
    # undecodable bytes become U+FFFD, which parse_graph6 rejects as non-ASCII
    RAW = b"Dhc\n\xff\xfeBw\nDhc\n"
    DECODED = "Dhc\n\ufffd\ufffdBw\nDhc\n"

    def stdin(self, monkeypatch, data):
        # the text layer's encoding is never used: lines are read as bytes
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data), encoding="ascii"))

    def check(self, text):
        recs = [json.loads(ln) for ln in text.splitlines()]
        assert [(r["line"], r["verdict"]) for r in recs] == [(1, "holds"), (2, "parse-error"), (3, "holds")]
        assert recs[1]["graph6"] == "\ufffd\ufffdBw" and "non-ASCII" in recs[1]["detail"]["error"]

    def test_file_input(self, tmp_path):
        p = tmp_path / "c.g6"
        p.write_bytes(self.RAW)
        out = tmp_path / "r.jsonl"
        run_hunt(HuntConfig(input_path=str(p), output_path=str(out)))
        self.check(out.read_text(encoding="utf-8"))

    def test_stdin(self, monkeypatch, capsys):
        self.stdin(monkeypatch, self.RAW)
        run_hunt(HuntConfig())
        self.check(capsys.readouterr().out)

    def test_stdin_with_checkpoint(self, tmp_path, monkeypatch):
        self.stdin(monkeypatch, self.RAW)
        out, ckpt = tmp_path / "r.jsonl", tmp_path / "ck.json"
        run_hunt(HuntConfig(output_path=str(out), checkpoint_path=str(ckpt)))
        self.check(out.read_text(encoding="utf-8"))
        data = json.loads(ckpt.read_text())
        assert data["next_line"] == 4
        assert data["input_sha256"] == hashlib.sha256(self.DECODED.encode()).hexdigest()

    @pytest.mark.parametrize("source", ["file", "stdin"])
    def test_line_breaks_and_fingerprint_pinned(self, tmp_path, monkeypatch, source):
        # \r\n, a lone \r and \f each end a line, as str.splitlines() splits
        # the whole text; the numbers and the sha256 of the consumed lines
        # (not the trailing comment) are pinned from the implementation that
        # read the whole input and split it
        raw = b"# head\r\nDhc\rA_\x0cC`\r\n\r\n  Dhc  \r\r\n# c\x0cBw\nA_\r# tail\n"
        p = tmp_path / "c.g6"
        p.write_bytes(raw)
        if source == "stdin":
            self.stdin(monkeypatch, raw)
        out, ckpt = tmp_path / "r.jsonl", tmp_path / "ck.json"
        cfg = HuntConfig(input_path=str(p) if source == "file" else None,
                         output_path=str(out), checkpoint_path=str(ckpt))
        run_hunt(cfg)
        recs = read_records(out)
        assert [(r["line"], r["graph6"]) for r in recs] == [
            (2, "Dhc"), (3, "A_"), (4, "C`"), (6, "Dhc"), (9, "Bw"), (10, "A_")
        ]
        data = json.loads(ckpt.read_text())
        assert data["next_line"] == 11
        assert data["input_sha256"] == "6ee9626bb00b88dbf14eb1fd8618a7b36ac2d216232056a2889f1d8f326e2091"

    def test_cr_only_input_is_numbered_as_splitlines(self, tmp_path):
        # a lone '\r' ends a line as in str.splitlines(); such a corpus is
        # one physical line, so it is read whole, but numbered and hashed the
        # same
        p = tmp_path / "c.g6"
        p.write_bytes(b"Dhc\rA_\r\rBw\r")
        out, ckpt = tmp_path / "r.jsonl", tmp_path / "ck.json"
        run_hunt(HuntConfig(input_path=str(p), output_path=str(out), checkpoint_path=str(ckpt)))
        assert [(r["line"], r["graph6"]) for r in read_records(out)] == [(1, "Dhc"), (2, "A_"), (4, "Bw")]
        data = json.loads(ckpt.read_text())
        assert data["next_line"] == 5
        assert data["input_sha256"] == hashlib.sha256(b"Dhc\nA_\n\nBw\n").hexdigest()


class TestStream:
    # cheap graphs, over more than one chunk
    LINES = [emit_graph6(cycle(n)) for n in range(3, 11)] * 50  # 400 lines

    def corpus(self, path, lines=LINES):
        path.write_text("\n".join(lines) + "\n")
        return path

    def stub_pool(self, monkeypatch):
        """Replace the process pool by one that runs each chunk when its
        result is read; the returned counter holds the chunks outstanding now
        and at the peak."""
        outstanding = Counter()

        class Deferred:
            def __init__(self, fn, args):
                self.fn, self.args = fn, args

            def result(self):
                outstanding["now"] -= 1
                return self.fn(*self.args)

        class StubPool:
            def __init__(self, workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return None

            def submit(self, fn, *args):
                outstanding["now"] += 1
                outstanding["peak"] = max(outstanding["peak"], outstanding["now"])
                return Deferred(fn, args)

        monkeypatch.setattr(hm, "ProcessPoolExecutor", StubPool)
        return outstanding

    def test_window_holds_at_most_two_chunks_per_worker(self, tmp_path, monkeypatch):
        outstanding = self.stub_pool(monkeypatch)
        monkeypatch.setattr(hm, "_CHUNK_LINES", 16)  # 25 chunks
        out = tmp_path / "r.jsonl"
        summary = run_hunt(HuntConfig(input_path=str(self.corpus(tmp_path / "c.g6")), output_path=str(out), workers=3))
        assert summary.total == 400
        assert [r["line"] for r in read_records(out)] == list(range(1, 401))
        assert outstanding == {"now": 0, "peak": 6}

    def test_slow_tail_is_checkpointed_every_256_lines(self, tmp_path, monkeypatch):
        # 600 cheap graphs, then 20 slow ones: slow graphs go in chunks of
        # the same size, so at most 256 lines are done between two
        # checkpoint writes
        self.stub_pool(monkeypatch)

        def slow_tail(cfg, no, text, _fn=hm._process_line):
            if no > 600:
                time.sleep(0.005)
            return _fn(cfg, no, text)

        monkeypatch.setattr(hm, "_process_line", slow_tail)
        writes = []

        def spied(self, next_line, output_bytes, input_sha256, _fn=hm._Checkpoint.write):
            writes.append(next_line)
            return _fn(self, next_line, output_bytes, input_sha256)

        monkeypatch.setattr(hm._Checkpoint, "write", spied)
        p = self.corpus(tmp_path / "c.g6", self.LINES + self.LINES[:220])
        out, ckpt = tmp_path / "r.jsonl", tmp_path / "ck.json"
        summary = run_hunt(HuntConfig(input_path=str(p), output_path=str(out), checkpoint_path=str(ckpt), workers=2))
        assert summary.total == 620
        assert writes == [257, 513, 621]

    def test_memory_does_not_grow_with_corpus_length(self, tmp_path, monkeypatch):
        # 64-line chunks, so the short corpus spans several, and cyclic
        # garbage from the search kernels collected before each chunk, so the
        # peak is what the hunt holds, not what the collector has yet to free
        monkeypatch.setattr(hm, "_CHUNK_LINES", 64)

        def collected(cfg, lines, _fn=hm._process_chunk):
            gc.collect()
            return _fn(cfg, lines)

        monkeypatch.setattr(hm, "_process_chunk", collected)
        atlas = "".join((DATA / f"graphs{n}.g6").read_text() for n in range(7)).split()  # 209 graphs
        peaks = []
        for reps in (1, 10):
            p = self.corpus(tmp_path / f"c{reps}.g6", atlas * reps)
            ckpt = tmp_path / f"ck{reps}.json"
            cfg = HuntConfig(input_path=str(p), output_path=str(tmp_path / "r.jsonl"), checkpoint_path=str(ckpt))
            gc.collect()
            tracemalloc.start()
            try:
                assert run_hunt(cfg).total == 209 * reps
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.5 * peaks[0], peaks

    def test_workers_and_resume_inside_a_chunk_match(self, tmp_path, monkeypatch):
        p = self.corpus(tmp_path / "c.g6")
        sizes = []
        with monkeypatch.context() as m:
            def spied(cfg, lines, _fn=hm._process_chunk):
                sizes.append(len(lines))
                return _fn(cfg, lines)

            m.setattr(hm, "_process_chunk", spied)
            full = tmp_path / "full.jsonl"
            run_hunt(HuntConfig(input_path=str(p), output_path=str(full)))
        expected = strip_elapsed(read_records(full))
        assert sizes == [256, 144]  # line 150 ends no chunk

        two = tmp_path / "two.jsonl"
        run_hunt(HuntConfig(input_path=str(p), output_path=str(two), workers=2))
        assert [r["line"] for r in read_records(two)] == list(range(1, 401))
        assert strip_elapsed(read_records(two)) == expected

        # a run over the first 150 lines, resumed over all 400
        prefix = self.corpus(tmp_path / "prefix.g6", self.LINES[:150])
        out, ckpt = tmp_path / "part.jsonl", tmp_path / "ck.json"
        run_hunt(HuntConfig(input_path=str(prefix), output_path=str(out), checkpoint_path=str(ckpt)))
        assert json.loads(ckpt.read_text())["next_line"] == 151
        summary = run_hunt(HuntConfig(input_path=str(p), output_path=str(out), checkpoint_path=str(ckpt)))
        assert summary.total == 400
        assert strip_elapsed(read_records(out)) == expected


def c5_independent_blowup(m):
    """C5 with each vertex replaced by m pairwise non-adjacent twins: 2K2-free,
    with m^5 induced C5s."""
    return from_edge_list(5 * m, [(i * m + a, (i + 1) % 5 * m + b) for i in range(5) for a in range(m) for b in range(m)])


class TestLimits:
    def test_one_deadline_per_graph(self, monkeypatch):
        # every budgeted call of one record stops at the same instant, the
        # budget after the record began, however long the calls before it took
        stops = []

        def chi(g, deadline):
            stops.append(("chi", deadline.at))
            time.sleep(0.02)
            return 3, (0, 1, 0, 1, 2)

        def search(g, t, cap, deadline):
            stops.append(("search", deadline.at))
            time.sleep(0.02)
            return None

        def certificate(g, k, deadline):
            stops.append(("certificate", deadline.at))
            return None

        monkeypatch.setattr(hm, "chromatic_number", chi)
        monkeypatch.setattr(hm, "has_dominating_kt", search)
        monkeypatch.setattr(hm, "_k_colorable", certificate)
        budget = 0.1
        t0 = time.monotonic()
        check_graph(cycle(5), ("dominating-hadwiger", "extraction", "t3-equivalence"), time_budget_s=budget)
        t1 = time.monotonic()
        assert [name for name, _ in stops] == ["chi", "search", "certificate", "chi", "search"]
        assert len({at for _, at in stops}) == 1
        assert t0 + budget <= stops[0][1] <= t1 + budget

    def test_c5_cap_is_capacity_not_counterexample(self, monkeypatch, tmp_path):
        # the extractor's induced-C5 cap is a limit of the tool: more C5s
        # than it allows says nothing about the conjecture
        monkeypatch.setattr(ex, "DEFAULT_C5_CAP", 5)
        g = c5_independent_blowup(2)  # 32 induced C5s
        verdict, chi, detail = check_graph(g, ALL_CHECKS)
        assert (verdict, chi) == ("capacity", 3)
        error = "more than 5 induced C5 embeddings (extraction.DEFAULT_C5_CAP)"
        assert detail["extraction"] == {"outcome": "capacity", "error": error}
        corpus = tmp_path / "blowup.g6"
        corpus.write_text(emit_graph6(g) + "\n")
        summary = run_hunt(
            HuntConfig(input_path=str(corpus), output_path=str(tmp_path / "r.jsonl"), checks=("extraction",))
        )
        assert summary.verdicts == {"capacity": 1} and summary.exit_code == 0


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
        for module, name in ((em, "_k_colorable"), (pm, "_scan_2k2")):
            def counted(*a, _fn=getattr(module, name), _name=name):
                runs[_name] += 1
                return _fn(*a)

            monkeypatch.setattr(module, name, counted)
        verdict, chi, detail = check_graph(complete(4), ALL_CHECKS)
        assert (verdict, chi) == ("holds", 4)
        assert all(d["outcome"] == "ok" for d in detail.values())
        assert runs == {"_k_colorable": 1, "_scan_2k2": 1}

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
    # four checks over the atlas graphs with n <= 7, pinned from the rooted
    # partition search, whose dominating models are in normal form
    DIGEST = "b2807a0d777a24cb8454ae031a5ede48"

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

    def test_refuses_other_settings_before_reading_input(self, tmp_path):
        # the settings are compared before the consumed prefix is read and
        # hashed, so a refusal reads no input line, however far the run got
        _, out, ckpt = self.interrupted(tmp_path)
        data = json.loads(ckpt.read_text())
        data["next_line"] = 10**6
        ckpt.write_text(json.dumps(data))
        taken = 0

        def lines():
            nonlocal taken
            for no, ln in enumerate(self.LINES * 25, start=1):
                taken += 1
                yield no, ln

        cfg = HuntConfig(output_path=str(out), checkpoint_path=str(ckpt), checks=("t3-equivalence",))
        message = "does not match this run: checks is ['dominating-hadwiger'] there and ['t3-equivalence'] here"
        with pytest.raises(HuntError) as refused:
            hm._Checkpoint(cfg).read(lines())
        assert str(refused.value) == f"checkpoint {ckpt} {message}"
        assert taken == 0

    def test_refuses_other_consumed_input(self, tmp_path):
        full, out, ckpt = self.interrupted(tmp_path)
        lines = list(self.LINES)
        lines[3] = emit_graph6(cycle(8))  # inside the consumed prefix
        full.write_text("\n".join(lines) + "\n")
        cfg = HuntConfig(input_path=str(full), output_path=str(out), checkpoint_path=str(ckpt))
        with pytest.raises(HuntError, match="input_sha256"):
            run_hunt(cfg)

    @pytest.mark.parametrize(
        "field", ["next_line", "output_bytes", "checks", "graph_filter", "exact_cap", "time_budget_s", "input_sha256"]
    )
    def test_refuses_checkpoint_missing_a_field(self, tmp_path, field):
        # a checkpoint without its whole fingerprint cannot be matched to
        # this run, so it is refused and the output is left as it was
        full, out, ckpt = self.interrupted(tmp_path)
        before = out.read_bytes()
        data = json.loads(ckpt.read_text())
        del data[field]
        ckpt.write_text(json.dumps(data))
        cfg = HuntConfig(input_path=str(full), output_path=str(out), checkpoint_path=str(ckpt))
        with pytest.raises(HuntError, match=field):
            run_hunt(cfg)
        assert out.read_bytes() == before

    def test_empty_checkpoint_starts_over(self, tmp_path):
        # a run killed between creating the checkpoint and its first write
        # leaves an empty file; no record was checkpointed, so a resume
        # recomputes every record into a fresh output
        full, out, ckpt = self.interrupted(tmp_path)
        plain = tmp_path / "plain.jsonl"
        run_hunt(HuntConfig(input_path=str(full), output_path=str(plain)))
        ckpt.write_bytes(b"")
        out.write_text("partial record from the killed run")
        cfg = HuntConfig(input_path=str(full), output_path=str(out), checkpoint_path=str(ckpt))
        assert run_hunt(cfg).total == 40
        assert strip_elapsed(read_records(out)) == strip_elapsed(read_records(plain))
        assert json.loads(ckpt.read_text())["next_line"] == 41

    def test_refuses_non_json_checkpoint(self, tmp_path):
        full, out, ckpt = self.interrupted(tmp_path)
        before = out.read_bytes()
        ckpt.write_text("not a checkpoint")
        cfg = HuntConfig(input_path=str(full), output_path=str(out), checkpoint_path=str(ckpt))
        with pytest.raises(HuntError, match="unreadable checkpoint"):
            run_hunt(cfg)
        assert out.read_bytes() == before

    def test_accepts_other_input_after_the_consumed_prefix(self, tmp_path):
        full, out, ckpt = self.interrupted(tmp_path)
        lines = list(self.LINES)
        lines[17] = emit_graph6(cycle(8))  # first line the resume reads
        full.write_text("\n".join(lines) + "\n")
        cfg = HuntConfig(input_path=str(full), output_path=str(out), checkpoint_path=str(ckpt))
        assert run_hunt(cfg).total == 40
        assert read_records(out)[17]["n"] == 8


class TestCheckpointInPlace:
    def test_rewritten_in_place(self, tmp_path, monkeypatch):
        # every chunk's write overwrites the first write's file: no
        # temporary file, no rename to a new inode
        monkeypatch.setattr(hm, "_CHUNK_LINES", 16)
        p = tmp_path / "c.g6"
        p.write_text("\n".join(emit_graph6(cycle(n)) for n in range(3, 103)) + "\n")
        out, ckpt = tmp_path / "r.jsonl", tmp_path / "ck.json"
        inodes = []

        def spied(self, *args, _fn=hm._Checkpoint.write):
            _fn(self, *args)
            inodes.append(os.stat(self.path).st_ino)

        monkeypatch.setattr(hm._Checkpoint, "write", spied)
        run_hunt(HuntConfig(input_path=str(p), output_path=str(out), checkpoint_path=str(ckpt)))
        assert len(inodes) == 7
        assert set(inodes) == {inodes[0]}
        assert sorted(f.name for f in tmp_path.iterdir()) == ["c.g6", "ck.json", "r.jsonl"]
        assert json.loads(ckpt.read_text())["next_line"] == 101

    def test_short_payload_after_long_one_parses(self, tmp_path):
        ckpt = tmp_path / "ck.json"
        cp = hm._Checkpoint(HuntConfig(output_path=str(tmp_path / "r.jsonl"), checkpoint_path=str(ckpt)))
        cp.write(10**15, 10**18, "f" * 64)
        long_size = ckpt.stat().st_size
        cp.write(2, 7, "0" * 64)
        assert ckpt.stat().st_size == long_size  # padded, not truncated
        assert json.loads(ckpt.read_text()) == cp._fields(2, 7, "0" * 64)
        with open(ckpt, encoding="utf-8") as fh:
            assert json.load(fh)["next_line"] == 2

    def test_largest_payload_fits_one_page(self, tmp_path):
        # a write of at most one page at offset 0 is applied whole or not
        # at all, even when the process is killed
        ckpt = tmp_path / "ck.json"
        cfg = HuntConfig(output_path=str(tmp_path / "r.jsonl"), checkpoint_path=str(ckpt), checks=ALL_CHECKS,
                         graph_filter="2k2-free", exact_cap=10**6, time_budget_s=0.1 + 0.2)
        hm._Checkpoint(cfg).write(10**18, 10**18, "f" * 64)
        assert ckpt.stat().st_size < 4096


class TestKilledHunt:
    def test_killed_cli_hunt_resumes_to_the_same_records(self, tmp_path):
        # a real 2-worker CLI hunt, killed with its workers by SIGKILL once
        # it has checkpointed a chunk, then resumed
        corpus = tmp_path / "atlas3.g6"
        corpus.write_text("".join((DATA / f"graphs{n}.g6").read_text() for n in range(9)) * 3)
        src = str(Path(hm.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))

        def argv(out, ckpt):
            return [sys.executable, "-m", "domminor.cli", "hunt", "--input", str(corpus), "--workers", "2",
                    "--checks", *ALL_CHECKS, "--output", str(out), "--checkpoint", str(ckpt)]

        def records(out):
            recs = read_records(out)
            for rec in recs:
                del rec["elapsed_ms"]
            return sorted(json.dumps(rec, sort_keys=True) for rec in recs)

        out, ckpt = tmp_path / "r.jsonl", tmp_path / "ck.json"
        proc = subprocess.Popen(argv(out, ckpt), env=env, stdout=subprocess.DEVNULL, start_new_session=True)
        try:
            deadline = time.monotonic() + 60
            next_line = 0
            while next_line <= 1 and proc.poll() is None and time.monotonic() < deadline:
                try:
                    next_line = json.loads(ckpt.read_text())["next_line"]
                except (OSError, ValueError):
                    pass
                time.sleep(0.002)
            assert next_line > 1
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        assert proc.returncode == -signal.SIGKILL  # killed mid-run, not finished
        assert json.loads(ckpt.read_text())["next_line"] <= 3 * 13599

        subprocess.run(argv(out, ckpt), env=env, stdout=subprocess.DEVNULL, check=True, timeout=120)
        full_out, full_ckpt = tmp_path / "full.jsonl", tmp_path / "full.json"
        subprocess.run(argv(full_out, full_ckpt), env=env, stdout=subprocess.DEVNULL, check=True, timeout=120)
        expected = records(full_out)
        assert len(expected) == 3 * 13599
        assert records(out) == expected

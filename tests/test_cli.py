"""Tests for the command-line interface."""

import io
import json

import pytest

from repro import cli
from repro.cli import build_parser, main


def run(argv, out=None):
    args = build_parser().parse_args(argv)
    from repro.cli import COMMANDS
    return COMMANDS[args.command](args, out=out or io.StringIO())


class TestInfo:
    def test_lists_all_datasets(self):
        out = io.StringIO()
        assert run(["info"], out) == 0
        text = out.getvalue()
        for name in ("sift10k", "audio", "sun", "glove", "enron", "yorck"):
            assert name in text

    def test_mentions_paper_defaults(self):
        out = io.StringIO()
        run(["info"], out)
        assert "m=10" in out.getvalue()


class TestBuildQuery:
    def test_build_then_query_round_trip(self, tmp_path):
        out = io.StringIO()
        code = run(["build", "--dataset", "glove", "--n", "300",
                    "--out", str(tmp_path / "idx"), "--trees", "4",
                    "--alpha", "64", "--gamma", "16"], out)
        assert code == 0
        assert "built HD-Index" in out.getvalue()
        assert (tmp_path / "idx" / "meta.json").exists()

        out = io.StringIO()
        code = run(["query", "--index", str(tmp_path / "idx"),
                    "--dataset", "glove", "--n", "300",
                    "--queries", "5", "-k", "5"], out)
        assert code == 0
        assert "MAP@k" in out.getvalue()

    @pytest.mark.parametrize("execution, kind", [
        ([], "sequential"),
        (["--execution", "process", "--workers", "1"], "process"),
    ], ids=["in-process", "process"])
    def test_build_then_serve_reports_execution(self, tmp_path, execution,
                                                kind):
        run(["build", "--dataset", "glove", "--n", "200",
             "--out", str(tmp_path / "idx"), "--trees", "4",
             "--alpha", "32", "--gamma", "8"])
        out = io.StringIO()
        code = run(["serve", "--index", str(tmp_path / "idx"),
                    "--dataset", "glove", "--n", "200", "--queries", "8",
                    "--clients", "2", "-k", "3", *execution], out)
        assert code == 0
        assert f"served 8 queries from 2 clients (execution={kind})" \
            in out.getvalue()

    def test_sharded_snapshot_served_by_the_process_pool(self, tmp_path):
        """The one multi-core path from the command line: a compacted
        sharded root served by the row-sharded worker pool."""
        idx = str(tmp_path / "idx")
        assert run(["build", "--dataset", "glove", "--n", "200",
                    "--out", idx, "--trees", "4", "--alpha", "32",
                    "--gamma", "8", "--shards", "2",
                    "--backend", "mmap"]) == 0
        assert run(["compact", "--index", idx]) == 0
        out = io.StringIO()
        code = run(["serve", "--index", idx, "--dataset", "glove",
                    "--n", "200", "--queries", "8", "--clients", "2",
                    "-k", "3", "--execution", "process",
                    "--workers", "2"], out)
        assert code == 0
        assert "served 8 queries from 2 clients (execution=process)" \
            in out.getvalue()

    @pytest.mark.parametrize("shards", ["1", "2"], ids=["plain", "sharded"])
    def test_filtered_query_matches_the_oracle(self, tmp_path, capsys,
                                               shards):
        """``query --filter`` checks its answers against a brute-force
        scan of the eligible rows, shard by shard for a sharded snapshot
        (its ids mapped to global ids).  At most α rows are eligible per
        shard, so the answers are exact and the recall is 1."""
        idx = str(tmp_path / "idx")
        assert run(["build", "--dataset", "glove", "--n", "300",
                    "--out", idx, "--trees", "4", "--alpha", "64",
                    "--gamma", "16", "--shards", shards,
                    "--with-labels", "5"]) == 0
        out = io.StringIO()
        code = run(["query", "--index", idx, "--dataset", "glove",
                    "--n", "300", "--queries", "5", "-k", "5", "--filter",
                    '{"op": "eq", "column": "label", "value": 3}'], out)
        assert code == 0, capsys.readouterr().err
        assert "selectivity 20.0%, 60 eligible rows" in out.getvalue()
        assert "filter-then-scan oracle: 1.000" in out.getvalue()

    def test_build_backend_is_the_params_backend(self, tmp_path):
        idx = tmp_path / "idx"
        assert run(["build", "--dataset", "glove", "--n", "200",
                    "--out", str(idx), "--trees", "4", "--alpha", "32",
                    "--gamma", "8", "--backend", "memory"]) == 0
        meta = json.loads((idx / "meta.json").read_text())
        assert meta["params"]["backend"] == "memory"

    @pytest.mark.parametrize("stale", [
        {"topology": {"shards": 2}},
        {"execution": {"wal": True}},
        {"backend": "mmap"},
    ], ids=["topology", "execution", "backend"])
    def test_spec_file_with_older_keys_is_refused(self, tmp_path, capsys,
                                                  stale):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"params": {"num_trees": 4}, **stale}))
        code = run(["build", "--dataset", "glove", "--n", "200",
                    "--out", str(tmp_path / "idx"), "--spec", str(spec)])
        assert code == 2
        assert "docs/MIGRATION.md" in capsys.readouterr().err
        assert not (tmp_path / "idx").exists()

    def test_query_dimension_mismatch_fails_cleanly(self, tmp_path,
                                                    monkeypatch):
        run(["build", "--dataset", "glove", "--n", "200",
             "--out", str(tmp_path / "idx"), "--trees", "4",
             "--alpha", "32", "--gamma", "8"])
        closed = []
        real_open = cli.open_index

        def spying_open(*args, **kwargs):
            index = real_open(*args, **kwargs)
            real_close = index.close

            def close():
                closed.append(True)
                real_close()

            index.close = close
            return index

        monkeypatch.setattr(cli, "open_index", spying_open)
        code = run(["query", "--index", str(tmp_path / "idx"),
                    "--dataset", "sift10k", "--n", "200", "-k", "3"])
        assert code == 2
        assert closed, "the early return left the index open"

    def test_serve_reports_requests_that_fail_to_submit(self, tmp_path,
                                                        monkeypatch,
                                                        capsys):
        from repro.serve import QueryService
        run(["build", "--dataset", "glove", "--n", "200",
             "--out", str(tmp_path / "idx"), "--trees", "4",
             "--alpha", "32", "--gamma", "8"])

        def refuse(self, query, k, **kwargs):
            raise ValueError("refused")

        monkeypatch.setattr(QueryService, "submit", refuse)
        code = run(["serve", "--index", str(tmp_path / "idx"),
                    "--dataset", "glove", "--n", "200", "--queries", "4",
                    "--clients", "2", "-k", "3"])
        assert code == 1
        assert "4 queries failed" in capsys.readouterr().err

    def test_build_from_fvecs(self, tmp_path):
        import numpy as np

        from repro.datasets import write_vecs
        vectors = np.random.default_rng(0).uniform(
            0, 10, size=(220, 16)).astype(np.float32)
        path = tmp_path / "data.fvecs"
        write_vecs(path, vectors)
        out = io.StringIO()
        code = run(["build", "--fvecs", str(path), "--n", "200",
                    "--queries", "20", "--out", str(tmp_path / "idx"),
                    "--trees", "4", "--alpha", "32", "--gamma", "8"], out)
        assert code == 0
        assert "n=200" in out.getvalue()


class TestWalCompact:
    def test_build_wal_update_then_compact(self, tmp_path):
        out = io.StringIO()
        code = run(["build", "--dataset", "glove", "--n", "200",
                    "--out", str(tmp_path / "idx"), "--trees", "4",
                    "--alpha", "32", "--gamma", "8", "--wal"], out)
        assert code == 0

        # Simulate a client session: the reopened index records updates
        # in the WAL next to the snapshot instead of resyncing it.
        import numpy as np

        from repro.core import open_index
        index = open_index(str(tmp_path / "idx"))
        try:
            assert index._wal is not None
            rng = np.random.default_rng(7)
            index.insert(rng.uniform(0.0, 10.0, size=index.dim))
            index.delete(0)
        finally:
            index.close()
        assert (tmp_path / "idx" / "wal.log").exists()

        out = io.StringIO()
        code = run(["compact", "--index", str(tmp_path / "idx")], out)
        assert code == 0
        assert "generation 1" in out.getvalue()
        assert (tmp_path / "idx" / "CURRENT").exists()

        # The folded generation serves queries like any snapshot.
        out = io.StringIO()
        code = run(["query", "--index", str(tmp_path / "idx"),
                    "--dataset", "glove", "--n", "200",
                    "--queries", "3", "-k", "3"], out)
        assert code == 0
        assert "MAP@k" in out.getvalue()

    def test_unlogged_updates_last_through_save_and_compact(self, tmp_path):
        """Built without --wal: updates are volatile until save_index,
        and `compact` (which used to refuse such an index) re-persists
        the snapshot in place without starting a generation chain."""
        import numpy as np

        from repro.core import open_index, save_index
        run(["build", "--dataset", "glove", "--n", "150",
             "--out", str(tmp_path / "idx"), "--trees", "4",
             "--alpha", "32", "--gamma", "8"])
        index = open_index(str(tmp_path / "idx"))
        vector = np.random.default_rng(7).uniform(0.0, 10.0, size=index.dim)
        new_id = index.insert(vector)
        save_index(index, tmp_path / "idx")
        index.close()
        assert not (tmp_path / "idx" / "wal.log").exists()

        out = io.StringIO()
        assert run(["compact", "--index", str(tmp_path / "idx")], out) == 0
        assert "(n=151) -> generation 0" in out.getvalue()
        assert not (tmp_path / "idx" / "CURRENT").exists()
        with open_index(str(tmp_path / "idx")) as reopened:
            assert int(reopened.query(vector, 1)[0][0]) == new_id


    def test_sharded_build_refuses_a_log(self, tmp_path, capsys):
        """A sharded deployment keeps no write-ahead log: one line on
        stderr and a usage exit, not a traceback or a partial snapshot."""
        code = main(["build", "--dataset", "glove", "--n", "150",
                     "--out", str(tmp_path / "idx"), "--trees", "4",
                     "--shards", "2", "--wal"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "no write-ahead log" in err
        assert not (tmp_path / "idx").exists()


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_main_dispatches(self, capsys):
        assert main(["info"]) == 0

    @pytest.mark.parametrize("argv", [
        ["query", "--index", "idx", "-k", "0"],
        ["serve", "--index", "idx", "-k", "0"],
        ["query", "--index", "idx", "--n", "0"],
        ["query", "--index", "idx", "--queries", "0"],
    ], ids=["query-k", "serve-k", "n", "queries"])
    def test_out_of_range_numbers_are_usage_errors(self, argv):
        with pytest.raises(SystemExit) as raised:
            build_parser().parse_args(argv)
        assert raised.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["compare"],
        ["serve", "--index", "{d}", "--listen", "127.0.0.1:0"],
        ["build", "--from-hdf5", "x.hdf5:train", "--out", "{d}"],
        ["build", "--dataset", "glove", "--n", "50", "--out", "{d}/idx",
         "--execution", "process"],
        ["build", "--dataset", "glove", "--n", "50", "--out", "{d}/idx",
         "--workers", "2"],
        ["query", "--index", "{d}", "--execution", "process"],
        ["query", "--index", "{d}", "--workers", "2"],
        ["serve", "--index", "{d}", "--execution", "thread"],
    ], ids=["compare", "serve-listen", "build-from-hdf5", "build-execution",
            "build-workers", "query-execution", "query-workers",
            "serve-execution-thread"])
    def test_removed_spellings_are_usage_errors(self, argv, tmp_path):
        """See docs/MIGRATION.md for what replaces each."""
        argv = [arg.format(d=tmp_path) for arg in argv]
        with pytest.raises(SystemExit) as raised:
            main(argv)
        assert raised.value.code == 2

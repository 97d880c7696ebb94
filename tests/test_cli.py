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
        ([], "None"),
        (["--workers", "1"], "1"),
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
        assert f"served 8 queries from 2 clients (workers={kind})" \
            in out.getvalue()

    def test_labelled_snapshot_served_by_the_process_pool(self, tmp_path):
        """The one multi-core path from the command line: a compacted
        labelled root served by the row-sharded worker pool."""
        idx = str(tmp_path / "idx")
        assert run(["build", "--dataset", "glove", "--n", "200",
                    "--out", idx, "--trees", "4", "--alpha", "32",
                    "--gamma", "8", "--with-labels", "4",
                    "--backend", "mmap"]) == 0
        assert run(["compact", "--index", idx]) == 0
        out = io.StringIO()
        code = run(["serve", "--index", idx, "--dataset", "glove",
                    "--n", "200", "--queries", "8", "--clients", "2",
                    "-k", "3", "--workers", "2"], out)
        assert code == 0
        assert "served 8 queries from 2 clients (workers=2)" \
            in out.getvalue()

    def test_filtered_query_matches_the_oracle(self, tmp_path, capsys):
        """``query --filter`` checks its answers against a brute-force
        scan of the eligible rows.  At most α rows are eligible, so the
        answers are exact and the recall is 1."""
        idx = str(tmp_path / "idx")
        assert run(["build", "--dataset", "glove", "--n", "300",
                    "--out", idx, "--trees", "4", "--alpha", "64",
                    "--gamma", "16", "--with-labels", "5"]) == 0
        out = io.StringIO()
        code = run(["query", "--index", idx, "--dataset", "glove",
                    "--n", "300", "--queries", "5", "-k", "5", "--filter",
                    '{"op": "eq", "column": "label", "value": 3}'], out)
        assert code == 0, capsys.readouterr().err
        assert "selectivity 20.0%, 60 eligible rows" in out.getvalue()
        assert "filter-then-scan oracle: 1.000" in out.getvalue()

    FILTERED = ["--dataset", "glove", "--n", "300", "--queries", "8",
                "-k", "5", "--filter",
                '{"op": "eq", "column": "label", "value": 3}']

    def _labelled_root(self, tmp_path, *flags):
        idx = str(tmp_path / "idx")
        assert run(["build", "--dataset", "glove", "--n", "300",
                    "--out", idx, "--trees", "4", "--alpha", "256",
                    "--gamma", "256", "--with-labels", "4", *flags]) == 0
        from repro import make_dataset
        return idx, make_dataset("glove", n=300, num_queries=8,
                                 seed=0).queries

    def test_filtered_oracle_skips_deleted_rows(self, tmp_path, capsys):
        """Each query's filtered nearest row is deleted and compacted
        away: the oracle grades against live rows only, so the index's
        exact answers score 1."""
        from repro import Eq, open_index
        idx, queries = self._labelled_root(tmp_path)
        with open_index(idx) as index:
            for query in queries:
                ids, _ = index.query(query, 1, predicate=Eq("label", 3))
                index.delete(int(ids[0]))
            deleted = len(index._deleted)
            index.compact()
        out = io.StringIO()
        code = run(["query", "--index", idx, *self.FILTERED], out)
        assert code == 0, capsys.readouterr().err
        assert f"{75 - deleted} eligible rows" in out.getvalue()
        assert "filter-then-scan oracle: 1.000" in out.getvalue()

    def test_filtered_oracle_scans_logged_inserts(self, tmp_path, capsys):
        """Logged inserts not yet compacted are live rows: the oracle
        counts and scans them."""
        from repro import open_index
        idx, queries = self._labelled_root(tmp_path, "--wal")
        with open_index(idx) as index:
            for query in queries:
                index.insert(query, {"label": 3})
        out = io.StringIO()
        code = run(["query", "--index", idx, *self.FILTERED], out)
        assert code == 0, capsys.readouterr().err
        assert "83 eligible rows" in out.getvalue()
        assert "filter-then-scan oracle: 1.000" in out.getvalue()

    def test_filtered_oracle_after_logged_deletes_and_inserts(
            self, tmp_path, capsys):
        """Deletes and inserts both still in the log, replayed by the
        command's own open: the oracle drops the deleted base rows and
        scans the inserted ones."""
        from repro import Eq, open_index
        idx, queries = self._labelled_root(tmp_path, "--wal")
        with open_index(idx) as index:
            for query in queries:
                ids, _ = index.query(query, 1, predicate=Eq("label", 3))
                index.delete(int(ids[0]))
            deleted = len(index._deleted)
            for query in queries:
                index.insert(query, {"label": 3})
        out = io.StringIO()
        code = run(["query", "--index", idx, *self.FILTERED], out)
        assert code == 0, capsys.readouterr().err
        assert f"{75 - deleted + 8} eligible rows" in out.getvalue()
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
        {"shards": 2},
    ], ids=["topology", "execution", "backend", "shards"])
    def test_spec_file_with_older_keys_is_refused(self, tmp_path, capsys,
                                                  stale):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"params": {"num_trees": 4}, **stale}))
        code = run(["build", "--dataset", "glove", "--n", "200",
                    "--out", str(tmp_path / "idx"), "--spec", str(spec)])
        assert code == 2
        assert "docs/MIGRATION.md" in capsys.readouterr().err
        assert not (tmp_path / "idx").exists()

    def test_spec_file_of_one_shard_builds(self, tmp_path):
        """Every plain spec file an older release wrote holds
        ``"shards": 1``: it builds the index it always did."""
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "params": {"num_trees": 4, "alpha": 32, "gamma": 8},
            "shards": 1, "wal": None}))
        idx = tmp_path / "idx"
        assert run(["build", "--dataset", "glove", "--n", "200",
                    "--out", str(idx), "--spec", str(spec)]) == 0
        meta = json.loads((idx / "meta.json").read_text())
        assert meta["params"]["num_trees"] == 4
        assert meta["spec"]["topology"]["shards"] == 1
        assert not (idx / "manifest.json").exists()

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


    @pytest.mark.parametrize("argv", [
        ["query", "--index", "{d}", "--dataset", "glove", "--n", "150"],
        ["query", "--index", "{d}", "--dataset", "glove", "--n", "150",
         "--filter", '{{"op": "eq", "column": "label", "value": 3}}'],
        ["compact", "--index", "{d}"],
        ["serve", "--index", "{d}", "--dataset", "glove", "--n", "150"],
        ["serve", "--index", "{d}", "--dataset", "glove", "--n", "150",
         "--workers", "2"],
    ], ids=["query", "query-filter", "compact", "serve", "serve-process"])
    def test_every_command_refuses_a_sharded_root(self, tmp_path, capsys,
                                                  argv):
        """Each command that opens ``--index`` refuses an older sharded
        root before touching it: exit 2, one ``error:`` line naming the
        migration guide, and the root's files left as they were."""
        root = tmp_path / "sharded"
        (root / "shard_0").mkdir(parents=True)
        manifest = json.dumps({"format_version": 1, "num_shards": 2,
                               "offsets": [0, 75, 150],
                               "insert_tails": [[], []]})
        (root / "manifest.json").write_text(manifest)
        code = main([arg.format(d=root) for arg in argv])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "docs/MIGRATION.md" in err
        assert sorted(p.name for p in root.iterdir()) == [
            "manifest.json", "shard_0"]
        assert (root / "manifest.json").read_text() == manifest
        assert not any((root / "shard_0").iterdir())

    def test_sharded_root_is_refused(self, tmp_path, capsys):
        """A root an older release wrote with ``--shards``: one line on
        stderr naming the migration guide, not a traceback."""
        (tmp_path / "manifest.json").write_text(
            '{"format_version": 1, "num_shards": 2}')
        code = main(["query", "--index", str(tmp_path),
                     "--dataset", "glove", "--n", "150"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "docs/MIGRATION.md" in err


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
        ["serve", "--index", "{d}", "--execution", "process",
         "--workers", "2"],
        ["build", "--dataset", "glove", "--n", "50", "--out", "{d}/idx",
         "--shards", "2"],
    ], ids=["compare", "serve-listen", "build-from-hdf5", "build-execution",
            "build-workers", "query-execution", "query-workers",
            "serve-execution-thread", "serve-execution-process",
            "build-shards"])
    def test_removed_spellings_are_usage_errors(self, argv, tmp_path):
        """See docs/MIGRATION.md for what replaces each."""
        argv = [arg.format(d=tmp_path) for arg in argv]
        with pytest.raises(SystemExit) as raised:
            main(argv)
        assert raised.value.code == 2

"""Tests for the command-line interface."""

import io

import pytest

from repro.cli import build_parser, cmd_build, cmd_compare, cmd_info, cmd_query, main


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
        (["--execution", "thread"], "sequential"),
        (["--execution", "process", "--workers", "1"], "process"),
    ], ids=["in-process", "legacy-thread", "process"])
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

    def test_query_dimension_mismatch_fails_cleanly(self, tmp_path):
        run(["build", "--dataset", "glove", "--n", "200",
             "--out", str(tmp_path / "idx"), "--trees", "4",
             "--alpha", "32", "--gamma", "8"])
        code = run(["query", "--index", str(tmp_path / "idx"),
                    "--dataset", "sift10k", "--n", "200", "-k", "3"])
        assert code == 2

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


class TestCompare:
    def test_compare_selected_methods(self):
        out = io.StringIO()
        code = run(["compare", "--dataset", "glove", "--n", "250",
                    "--queries", "4", "-k", "5",
                    "--methods", "hdindex,linear,idistance"], out)
        assert code == 0
        text = out.getvalue()
        for name in ("hdindex", "linear", "idistance"):
            assert name in text

    def test_unknown_method_rejected(self):
        code = run(["compare", "--dataset", "glove", "--n", "100",
                    "--methods", "faiss"])
        assert code == 2

    @pytest.mark.parametrize("name", ["vafile", "e2lsh"])
    def test_removed_method_names_the_migration_notes(self, name, capsys):
        code = run(["compare", "--dataset", "glove", "--n", "100",
                    "--methods", f"hdindex,{name}"])
        assert code == 2
        assert "docs/MIGRATION.md" in capsys.readouterr().err


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_main_dispatches(self, capsys):
        assert main(["info"]) == 0

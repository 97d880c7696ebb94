"""The serve tier's result cache and ``ServiceConfig`` are gone: every
served request is answered by the index.

Each removed keyword, import and flag is refused (docs/MIGRATION.md,
"Removed names", "The serve tier").
"""

import importlib

import numpy as np
import pytest

from repro import HDIndex, HDIndexParams, QueryService
from repro.cli import main as cli_main
from repro.core import save_index
from repro.serve.server import build_parser


@pytest.fixture(scope="module")
def snapshot(tmp_path_factory):
    data = np.random.default_rng(4).uniform(0, 100, size=(120, 8))
    index = HDIndex(HDIndexParams(num_trees=2, num_references=3, alpha=16,
                                  gamma=8, domain=(0.0, 100.0), seed=0))
    index.build(data)
    directory = tmp_path_factory.mktemp("snap")
    save_index(index, directory)
    yield index, directory
    index.close()


@pytest.mark.parametrize("call", [
    lambda index, d: QueryService(index, cache_size=1),
    lambda index, d: QueryService.from_snapshot(d, cache_size=1),
], ids=["QueryService", "QueryService.from_snapshot"])
def test_cache_size_is_an_unknown_keyword(call, snapshot):
    with pytest.raises(TypeError, match="cache_size"):
        call(*snapshot)


def test_a_config_object_is_not_accepted(snapshot):
    index, _ = snapshot
    with pytest.raises(TypeError):
        QueryService(index, object())


@pytest.mark.parametrize("module_name", ["repro", "repro.serve"])
def test_service_config_import_is_refused(module_name):
    with pytest.raises(ImportError, match="ServiceConfig"):
        exec(f"from {module_name} import ServiceConfig", {})  # noqa: S102


def test_cache_module_is_gone():
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.serve.cache")


def test_service_keeps_no_cache(snapshot):
    index, _ = snapshot
    with QueryService(index) as service:
        assert not hasattr(service, "cache")
        assert not hasattr(service, "invalidate_cache")
        assert not hasattr(service, "config")
        stats = service.stats()
    assert not hasattr(stats, "cache_hits")
    assert "cache_hits" not in stats.as_dict()


def test_serve_cache_flag_is_a_usage_error(snapshot, capsys):
    with pytest.raises(SystemExit) as raised:
        cli_main(["serve", "--index", str(snapshot[1]), "--cache", "8"])
    assert raised.value.code == 2
    errors = [line for line in capsys.readouterr().err.splitlines()
              if "error:" in line]
    assert len(errors) == 1 and "--cache" in errors[0]


def test_server_cache_size_flag_is_a_usage_error(snapshot, capsys):
    with pytest.raises(SystemExit) as raised:
        build_parser().parse_args(
            ["--snapshot", str(snapshot[1]), "--cache-size", "8"])
    assert raised.value.code == 2
    assert "--cache-size" in capsys.readouterr().err

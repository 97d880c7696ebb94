"""Known-bad fork-boundary snippets: every FS rule must fire here.

The test harness declares this file under ``[forksafety]`` with
``worker_functions = ["_worker_task"]``, ``allowed_worker_globals =
["_STATE"]``, ``bootstrap_functions = ["_bootstrap"]``,
``required_bootstrap_calls = ["_demote_executors"]`` and
``unpicklable_factories = ["VectorHeapFile"]``.
"""

_STATE = {"index": None}
_RESULTS = {}


def _worker_task(payload):
    _STATE["index"] = payload          # allowlisted bootstrap slot: ok
    _RESULTS["last"] = payload  # expect: FS201
    _RESULTS.update(done=True)  # expect: FS201
    return payload


def _bootstrap():  # expect: FS203
    index = _STATE["index"]
    return index


class Dispatcher:
    def __init__(self, pool, snapshot_path):
        self.pool = pool
        self.snapshot_path = snapshot_path

    def dispatch_lambda(self, pool):
        return pool.submit(lambda: 1)  # expect: FS202

    def dispatch_self(self, pool):
        return pool.submit(_worker_task, self)  # expect: FS202

    def dispatch_handle(self, pool):
        handle = open(self.snapshot_path, "rb")
        return pool.submit(_worker_task, handle)  # expect: FS202

    def dispatch_store(self, pool, executor_cls):
        store = VectorHeapFile(self.snapshot_path)
        executor = executor_cls(
            initializer=_worker_task,
            initargs=(store,),  # expect: FS202
        )
        return executor


def VectorHeapFile(path):
    """Stand-in factory so the fixture parses standalone."""
    return object()

"""Line-budget ratchet for ``src/repro``.

ROADMAP item 3 targets <= 15k source lines.  The budget below is the
count the last simplifying PR left behind: a change that removes code
lowers the constant in the same commit, and nothing raises it, so the
target can only be approached.  (One raise so far, PR 18, 17793 ->
17877: the subset form of the packed lookup, its page trace and the
id -> position column outweigh the deleted budget inflation by 84
lines, and review had the unrelated trims that hid it taken out.)
A second raise, 16378 -> 16503, pays for the eligible-set memo
(``EligibleSet`` / ``EligibleMemo`` in ``core/hdindex.py``, the
constants walk that validates a predicate before the lookup, the
id -> position columns in ``RDBTree.memory_bytes``) and for numpy
scalars as metadata values and predicate constants; nothing unrelated
was trimmed to hide it.  A third, 16286 -> 16295, pays for the subset
lookup's one take of the window's whole leaf records in
``RDBTree.candidates`` (its own branch beside the unfiltered slice) and
for the decoded id column in ``RDBTree.memory_bytes``; again nothing
unrelated was trimmed.  A fourth, 16295 -> 16320, pays for a set-up
that computes only what it reads: SSS keeps its minimum distances per
row block and folds admissions into a block when the scan reaches it
(``core/reference.py``), the dataset dedupe sorts one byte key per row
(``datasets/synthetic.py``, a stable sort spelled out: ``np.unique``
copies its keys twice more), and a merge into an empty tree adopts its
sorted copies as the columns (``core/rdbtree.py``); nothing unrelated
was trimmed.  16320 -> 15815: ``E2LSH``, ``VAFile`` and SRS's k-d tree went.
A fifth raise, 15815 -> 15856, pays for tree files that store ids at
the narrowest width: a record dtype per layout and the re-encode of the
existing records in ``RDBTree.merge`` when the width changes, the checks
``RDBTree.read`` makes of the columns it is given (row counts, record
width) and, in ``core/persistence.py``, the one decode wrapper that
turns a torn tree, metadata or reference file into a
``PersistenceError`` naming it, with the ``leaf_capacity`` check beside
the count check.  ``PackedTree.to_arrays`` / ``from_arrays`` and the
sanitizer's bulk-shape flag went (the geometry is never read from
disk), and one ``storage.pages.read_file`` replaced two copies of the
map-or-read branch; nothing unrelated was trimmed.
A sixth raise, 15856 -> 15893, pays for opening a WAL root's
generation and its log as one pair: ``load_index`` retries an open
that a compaction republished under (the ``published`` token and the
bounded loop), the open seam in ``wal/manager.py``, and scan workers
that open no log; it fixes the intermittent ``WAL id gap`` of the
online-update acceptance test, and nothing unrelated was trimmed.
A seventh raise, 15893 -> 16016, pays for a descriptor heap that stores
integer values at the narrowest lossless width while the page model
charges the storage dtype (``storage/vectors.py``): the choice and its
bit-exact round-trip check, a geometry per record dtype beside the
model's, the once-only rewrite at the storage dtype when an append
breaks the choice (one page-run writer shared with the append), the
checks ``restore_count`` makes of a recorded width and count, and the
heap's route through the persistence decode wrapper; also for
``exact_knn`` cutting a tie at the k-th place by id and taking the
data's squared norms once.  Nothing unrelated was trimmed.
16016 -> 15560: the replica tier went (the replica router, its CLI
subcommand, its placement hash and the topology's replica count), and
with it the blocking serve client and its second frame decoder.
15560 -> 15280: ``repro compare``, ``repro serve --listen`` and the
HDF5 streaming build (``repro build --from-hdf5`` and its loaders) went.
15280 -> 15166: the sharded write-ahead log (its replay, its fold, the
router's log state) and the topology's per-shard backends went.
15166 -> 14809: the per-tree process fan-out went (the engine's pool
and its remote branch, the tree-scan task, the index's and the router's
``set_execution``, the self-persisting build, ``repro.open(execution=)``
and the build/query execution flags, lint rule FS203); the service's
row-sharded pool is the one multi-core path.
14809 -> 14637: ``Topology``, the spec's ``backend`` and an index's
``Execution`` went (``IndexSpec`` is ``(params, shards, wal)``; the
service's ``Execution`` keeps ``kind``, ``workers`` and
``worker_timeout``), with the kind aliases, the worker backend and the
storage codecs nothing reached (``BytesCodec``, ``StructCodec``,
``UInt64Codec``).
14637 -> 14112: on-host sharding went (``core/router.py`` with
``ShardRouter`` and ``refuse_log``, the manifest save and open path,
the factory's router branch, ``IndexSpec.shards``, ``repro build
--shards`` and the CLI's shard-by-shard filter oracle, the service's
per-shard snapshot check, ``refuse_sharded_log``, ``WalRecord.shard``
and ``MetadataStore.slice``); ``IndexSpec`` is ``(params, wal)``.
14112 -> 14035: ``Execution`` and ``EXECUTION_KINDS`` went (a service's
placement is ``workers`` / ``worker_timeout``), with the service's
path form, ``default_workers``, ``SnapshotWorkerPool(cache_pages=)``,
``repro serve --execution``, the ``"never"`` fsync policy,
``GatewayConfig.latency_window`` and ``HDIndex._effective_sizes`` (one
filter-size resolver) — and with them two copies of the snapshot-root
lookup.
14035 -> 14102, a raise (+67): the one-pass build of the τ trees' keys
— the uint64-word container of the batch Skilling transform and its
switch (``WORD_LANE_BYTES``), the transform split from the pack so a
fused build block packs one curve's rows at a time (``_transposed``),
the leading-word key sort with its local tie pass
(``RDBTree._key_order``) and the τ key columns one encode per block
fills.  Deleted with it, paying part: the streamed build's separate
reference-distance pass and its per-tree heap re-reads,
``encode_for_curves``' one-curve branch, the empty-batch return of
``encode_batch_bytes`` and the early β collapse of
``resolve_filter_sizes``.  Nothing unrelated was trimmed.
14102 -> 14164, a raise (+62): the tiled exact scan
(``eval/ground_truth.py``) — its sizing (``GEMM_ROWS``, ``TILE_VALUES``,
even query blocks and data tiles), the running k-th bound with its
rounding slack, the candidates' merge (``_best_k``) and the checks of
``block`` and of finite rows.  Deleted with it, paying part: the
whole-row-block body, and the second copy of the LSH baselines'
``_top_k`` (one ``lsh_common.top_k`` for C2LSH and QALSH, without the
empty branch ``np.fromiter`` makes unnecessary), and
``pairwise_euclidean``'s ``b_sq``, which only the old body passed.
Nothing unrelated was trimmed.
14164 -> 14082: the modelled buffer pool went (``ModelledPool`` with its
page-id LRU, ``_resident``, ``clear_cache`` and its ``memory_bytes``
charge, ``IOStats.cache_hits`` / ``record_cache_hit``, the
``cache_pages=`` keywords of the heap, the trees, ``load_index``,
``repro.open``, ``QueryService.from_snapshot`` / ``swap_snapshot``,
``repro serve --cache-pages`` and the sanitizer's pool bound); the heap
and each RDB-tree count every read into their own ``IOStats``.  It also
pays for ``exact_knn`` widening rows of another dtype a tile at a time.
14082 -> 14002: ``KNNIndex`` owns the accounting records and read totals:
the copies of ``last_query_stats`` / ``build_stats`` /
``build_memory_bytes`` and the zeroed records in nine ``__init__``
methods went, as did ``HDIndex._total_page_reads`` / ``_read_breakdown``,
``QALSH._page_reads``, ``Multicurves._page_reads`` and the inline read
sums of iDistance and PQ (each class names its ``_accountants()``).
14002 -> 13898: ``KNNIndex.build`` / ``query`` validate, time and count
for every baseline, which writes only ``_build`` / ``_search``: the
baselines' timers, read sums, k and built checks, ``_require_built``
copies and ``BuildStats`` / ``QueryStats`` constructions went, with
iDistance's and SRS's copies of the sorted top-k insert (one
``baselines.verify.push``) and OPQ's copy of PQ's training and heap
write.
13898 -> 13711: the serve tier's result cache went (``serve/cache.py``
with ``ResultCache`` and ``make_key``, the service's cache epoch, its
lookup in ``submit`` and its fill in ``_complete``,
``invalidate_cache``, ``repro serve --cache`` and the server's
``--cache-size``), and with it ``ServiceConfig``: the service takes
``max_batch`` / ``max_pending`` as keywords.
13711 -> 13707: a tree lookup counts its page reads by arithmetic instead
of replaying a page-id trace (``PackedTree._nearest_trace``, the
ancestor table, the sanitizer's ``_ReadLog``), paying for the server's
flag checks; ``IOStats.reset`` / ``snapshot`` / ``__add__`` take the
counters from the dataclass's fields instead of listing them three
times.
13707 -> 13635: ``KNNIndex.query`` / ``query_batch`` are every method's
one query path around the batch hook ``_search_batch``, so
``HDIndex.query``, the body of ``HDIndex.query_batch``,
``HDIndex._require_built``, the body of ``QueryEngine.run``,
``run_batch``'s timer, read totals and shape checks, and the base
batch's per-field sum (``_COUNTED_FIELDS``) went; ``PackedTree`` takes
its two capacities and lays its geometry out itself
(``PackedTree.from_sorted`` went).
13635 -> 13628: ``KNNIndex.build`` is every method's one build, and
``build_from_chunks`` takes its one timed step (``_timed_build``), so
``HDIndex.build``'s own checks and timer, ``_build_trees``'
``BuildStats`` with its ``started`` / ``**extra`` parameters,
``BuildStats.extra``, the second ``num_trees`` check and
``validated_data`` went; they pay for a build that starts from nothing
and refuses a directory another reader or a log may still read
(``HDIndex._start_build``).
13628 -> 13678, a raise (+50): a request the gateway holds alone is
answered on the event loop's thread inside ``QueryService.submit``
(``alone=``), sparing the queue's two thread hand-offs — the service's
busy flag that keeps one thread inside the index, that ``_collect``
waits on and holds while a swap applies, the idle test in ``submit``,
the batch start (``_begin``) and the guarded answer (``_answer``) that
the dispatcher and a lone caller share, ``ServiceStats.alone``, the
gateway's one loop pass before it decides and its check of a lone
answer's deadline, and their docstrings.  No deletion in ``serve/``
paid for it then (the next entry pays it back): the dispatcher's guard
and batch accounting moved into the shared methods rather than went,
and nothing unrelated was trimmed.
13678 -> 13638: the deletion that pays for that raise.  A snapshot swap
takes the index the way a lone request does, in the caller's thread
behind the busy flag, so the dispatcher's swap hand-off went
(``_SwapRequest``, ``_pending_swap``, ``_maybe_swap``, ``_collect``'s
swap branch, ``stop()``'s orphaned swap and the superseded swap); a
count of waiting swaps is all that was added.
13638 -> 13593: one build pipeline.  ``build`` runs the streamed build's
block loop over ``[data]``, so ``HDIndex._build_from_chunks`` and
``_build_trees`` went with the array build's second validation pass,
quantiser rule and reference-distance pass, its n x ν coordinate copy
and its (n, m) float64 distance matrix.
13593 -> 13591: the one-query filter aliases ``triangular_lower_bounds``
/ ``ptolemaic_lower_bounds`` went, and ``pack_arrays`` returns its
buffers instead of joining copies of them.

``DOC_BUDGETS`` ratchets the two design documents the same way, from
the counts they were left at when they were rewritten to state the
current design once (``docs/ARCHITECTURE.md`` 1449 -> 1080,
``docs/MIGRATION.md`` 1080 -> 222): a change that shrinks one lowers
its budget, and a raise names what pays for it.
"""

from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCE = ROOT / "src" / "repro"
LINE_BUDGET = 13591
DOC_BUDGETS = {"docs/ARCHITECTURE.md": 1080, "docs/MIGRATION.md": 222}


def test_source_lines_within_budget():
    total = 0
    for path in SOURCE.rglob("*.py"):
        with open(path, "rb") as handle:
            total += sum(1 for _ in handle)
    assert total <= LINE_BUDGET, (
        f"src/repro has {total} lines, over the budget of {LINE_BUDGET}: "
        f"delete what the change made unnecessary (and lower the budget "
        f"when the count drops)")


def test_design_docs_within_budget():
    for name, budget in DOC_BUDGETS.items():
        with open(ROOT / name, "rb") as handle:
            total = sum(1 for _ in handle)
        assert total <= budget, (
            f"{name} has {total} lines, over its budget of {budget}: state "
            f"the current design once (measurements go to CHANGES.md), and "
            f"lower the budget when the count drops")

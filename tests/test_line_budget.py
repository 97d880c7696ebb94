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
was trimmed to hide it.
"""

from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "repro"
LINE_BUDGET = 16502


def test_source_lines_within_budget():
    total = 0
    for path in SOURCE.rglob("*.py"):
        with open(path, "rb") as handle:
            total += sum(1 for _ in handle)
    assert total <= LINE_BUDGET, (
        f"src/repro has {total} lines, over the budget of {LINE_BUDGET}: "
        f"delete what the change made unnecessary (and lower the budget "
        f"when the count drops)")

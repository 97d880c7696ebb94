"""The committed scalability table holds what the sweep measures today.

``benchmarks/results/scalability.txt`` is written by ``python -m
benchmarks.sweep scalability``, and ``scalability_check`` holds only
ratios between its rows, so a stale size column passes the sweep's own
check.  The n = 500 row is measured again here (a build of 500 points)
and its structural cells, which repeat exactly from run to run, must
equal the committed ones.
"""

import dataclasses
import re

from benchmarks import sweep


def committed_rows() -> dict[str, dict[str, str]]:
    """The committed table's rows keyed by ``n``, cell by column."""
    lines = (sweep.RESULTS_DIR / "scalability.txt").read_text().splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("n "))
    columns = lines[start].split()
    rows = {}
    for line in lines[start + 2:]:
        if line.strip():
            cells = dict(zip(columns, re.split(r"\s{2,}", line.strip())))
            rows[cells["n"]] = cells
    return rows


def test_first_row_sizes_equal_the_committed_table():
    figure = sweep.FIGURES["scalability"]
    (measured,) = sweep.compare(
        dataclasses.replace(figure, workloads=figure.workloads[:1]))
    committed = committed_rows()[str(figure.workloads[0].n)]
    for column in ("index_size", "index_RAM"):
        assert measured.row()[column] == committed[column], column

"""CSV and JSON report writers with locale-independent, round-trip formatting."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

# rows formatted and written at a time by ``write_csv``
_BLOCK_ROWS = 1024


def write_csv(path: Path, columns: dict[str, np.ndarray]) -> None:
    """Write a header of the column names, then one line per row of the columns.

    Each column is a 1-D int or float array, all of one length, and each cell
    is ``repr`` of the Python int or float that ``tolist`` gives: the shortest
    round-trip spelling, with a '.' decimal separator always.  Columns that
    break this raise ValueError before the file is opened.  Rows are written
    ``_BLOCK_ROWS`` at a time, so memory does not grow with the table.
    """
    if any(c.ndim != 1 or c.dtype.kind not in "iuf" for c in columns.values()):
        raise ValueError("every column must be a 1-D int or float array")
    if len(lengths := {len(c) for c in columns.values()}) > 1:
        raise ValueError(f"columns of unequal lengths {sorted(lengths)}")
    with open(path, "w", newline="\n") as out:
        out.write(",".join(columns) + "\n")
        for lo in range(0, max(lengths, default=0), _BLOCK_ROWS):
            cells = [map(repr, c[lo : lo + _BLOCK_ROWS].tolist()) for c in columns.values()]
            out.write("\n".join(map(",".join, zip(*cells))) + "\n")


def write_report(path: Path, report: dict) -> None:
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")

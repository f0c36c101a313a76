"""CSV and JSON report writers with locale-independent, round-trip formatting."""

from __future__ import annotations

import json
from itertools import islice
from pathlib import Path

# rows formatted and written at a time by ``write_csv``
_BLOCK_ROWS = 1024


def fmt_value(x) -> str:
    """Shortest round-trip representation; '.' decimal separator always."""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        # float() drops numpy's spelling: repr(np.float64(2.5)) is 'np.float64(2.5)'
        return repr(float(x))
    return str(x)


def write_csv(path: Path, header: list[str], rows) -> None:
    """Write the header and one line per row, each cell as ``fmt_value`` spells it.

    Rows are taken from ``rows`` and written a block at a time, so memory does
    not grow with the table.  Within a block, cells are formatted a column at a
    time: a column holding only plain ints and floats goes through ``repr``,
    which is what ``fmt_value`` returns for them, without a Python call per
    cell.  A row whose length is not the header's raises ValueError, and the
    lines before its block are already written.
    """
    rows = iter(rows)
    with open(path, "w", newline="\n") as out:
        out.write(",".join(header) + "\n")
        while block := list(islice(rows, _BLOCK_ROWS)):
            columns = [
                map(repr, col) if set(map(type, col)) <= {int, float} else map(fmt_value, col)
                for col in zip(*block, strict=True)
            ]
            if len(columns) != len(header):
                raise ValueError(f"rows of {len(columns)} cells under a header of {len(header)}")
            out.write("\n".join(map(",".join, zip(*columns))) + "\n")


def write_report(path: Path, report: dict) -> None:
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")

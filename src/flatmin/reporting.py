"""CSV and JSON report writers with locale-independent, round-trip formatting."""

from __future__ import annotations

import json
from pathlib import Path


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

    Cells are formatted a column at a time.  A column holding only plain ints
    and floats goes through ``repr``, which is what ``fmt_value`` returns for
    them, without a Python call per cell.
    """
    columns = [
        map(repr, col) if set(map(type, col)) <= {int, float} else map(fmt_value, col)
        for col in zip(*rows, strict=True)
    ]
    lines = [",".join(header), *map(",".join, zip(*columns))]
    path.write_text("\n".join(lines) + "\n", newline="\n")


def write_report(path: Path, report: dict) -> None:
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")

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
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(fmt_value(v) for v in row))
    path.write_text("\n".join(lines) + "\n", newline="\n")


def write_report(path: Path, report: dict) -> None:
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")

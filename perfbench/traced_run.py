"""Run `flatmin run CONFIG --output-dir OUT` under the tracer; dump spans to SPANS.

Usage: python perfbench/traced_run.py CONFIG OUT SPANS

SPANS receives {"exit_code", "main_cpu_s", "spans"}. ``main_cpu_s`` is the
process's CPU time, all threads, when flatmin's entry point returned, so the
parent gets the traced CPU time without the dump.
"""

from __future__ import annotations

import json
import sys
import time

from tracer import Tracer


def main(argv: list[str]) -> int:
    config, out_dir, spans_path = argv
    from flatmin.cli import main as flatmin_main

    with Tracer() as tracer:
        code = flatmin_main(["run", config, "--output-dir", out_dir])
    main_cpu_s = time.process_time()
    with open(spans_path, "w") as f:
        json.dump({"exit_code": code, "main_cpu_s": main_cpu_s, "spans": tracer.spans}, f)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

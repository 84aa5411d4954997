"""Run ``multithresh.cli.main`` in a fresh process under the tracer's wrappers.

Usage: python3 perfbench/estimate_child.py SPANS_JSON GRID_SIZE CLI_ARGS...

The benchmark starts this instead of ``python -m multithresh.cli`` for traced
estimate-db8 items, so each item is still a fresh process. The spans, the
counts and the time ``cli.main`` was entered are written to SPANS_JSON.
"""

import json
import sys
import time
from pathlib import Path

from tracer import Tracer, installed

import multithresh.cli as cli


def main() -> int:
    spans_path, grid_size, argv = Path(sys.argv[1]), int(sys.argv[2]), sys.argv[3:]
    tracer = Tracer()
    with installed(tracer, grid_size):
        entry = time.perf_counter()
        try:
            return tracer.call("cli", cli.main, (argv,))
        finally:
            record = tracer.child_record()
            record["main_entry"] = entry
            spans_path.write_text(json.dumps(record))


if __name__ == "__main__":
    sys.exit(main())

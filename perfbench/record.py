#!/usr/bin/env python3
"""Record the reference outputs of the benchmark workloads.

Usage, from the root of a checkout:

    python3 perfbench/record.py [WORKLOAD ...]

Runs every key of each workload's pool once with the program as it is and
rewrites ``perfbench/refs/<workload>.json``. Re-record only when a change
is meant to alter the program's outputs, and say so in the change.
"""

import sys

from workloads import REFS, SRC, WORKLOADS, pin_threads, record_refs, temp_workdir


def main(names) -> int:
    pin_threads()
    sys.path.insert(0, str(SRC))
    for name in names or sorted(WORKLOADS):
        with temp_workdir() as workdir:
            record_refs(WORKLOADS[name], "full", workdir, REFS)
        print(f"recorded {REFS / (name + '.json')}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

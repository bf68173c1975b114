"""Entry point of one benchmark child process; see ``workloads.py``.

The host-speed sampler starts before the simulator is imported, because
a set-up is timed from the child's start, imports included.
"""

from __future__ import annotations

import importlib
import sys

import hostspeed


def main() -> int:
    sampler = hostspeed.Sampler()
    workloads = importlib.import_module("workloads")
    return workloads.main(sys.argv[1:], sampler)


if __name__ == "__main__":
    sys.exit(main())

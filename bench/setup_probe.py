"""Time from a fresh interpreter to the first replication of a streamci run.

    python3 bench/setup_probe.py <src dir> <streamci arguments...>

Imports streamci from <src dir>, runs the command line until the harness is
asked to run the grid, and prints the time.monotonic() reading taken there,
without running any replication. The caller subtracts its own reading taken
before starting this interpreter; both are CLOCK_MONOTONIC on Linux.
"""

import sys
import time


class _Reached(Exception):
    pass


def _first_replication(*args, **kwargs):
    raise _Reached(time.monotonic())


def main() -> int:
    sys.path.insert(0, sys.argv[1])
    import streamci.cli

    streamci.cli.run_grid = _first_replication
    try:
        code = streamci.cli.run_cli(sys.argv[2:])
    except _Reached as reached:
        print(repr(reached.args[0]))
        return 0
    print(f"error: the run ended with {code} before its first replication", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())

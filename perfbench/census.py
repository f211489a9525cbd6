"""The census operation: ``verify_census(N, Z_P)`` over T, UT and PT.

Usage: python perfbench/census.py N P

Prints the census report as one JSON line.  semidec has no CLI
subcommand for the census, so this is the smallest fresh-process program
that runs it; ``traced.py`` calls ``main`` with the probes installed.
"""

from __future__ import annotations

import json
import sys


def main(argv: list[str]) -> int:
    from semidec.decomp import verify_census
    from semidec.semiring import make_prime_field

    n, p = (int(arg) for arg in argv)
    print(json.dumps(verify_census(n, make_prime_field(p)), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

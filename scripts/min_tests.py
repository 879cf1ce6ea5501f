#!/usr/bin/env python3
"""Run a test command and fail unless it ran at least MIN tests.

A `cargo test <filter>` whose filter matches nothing passes vacuously,
so a rename or a module move can silently empty a scoped job (the miri
steps select tests by name). This wrapper runs the command, echoes its
output, sums N over every `test result: ok. N passed` line and exits
non-zero if the command failed or fewer than MIN tests passed.

Usage:
    python3 scripts/min_tests.py MIN -- cargo miri test -p cora-exec --lib run_blocks
"""

from __future__ import annotations

import re
import subprocess
import sys

PASSED_RE = re.compile(r"^test result: ok\. (\d+) passed", re.MULTILINE)


def main() -> int:
    if len(sys.argv) < 4 or sys.argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    minimum = int(sys.argv[1])
    proc = subprocess.run(
        sys.argv[3:], stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True
    )
    sys.stdout.write(proc.stdout)
    if proc.returncode != 0:
        return proc.returncode
    passed = sum(int(n) for n in PASSED_RE.findall(proc.stdout))
    if passed < minimum:
        print(
            f"min_tests: only {passed} tests passed, expected at least {minimum} "
            "(did the filter stop matching after a rename?)",
            file=sys.stderr,
        )
        return 1
    print(f"min_tests: {passed} tests passed (minimum {minimum})")
    return 0


if __name__ == "__main__":
    sys.exit(main())

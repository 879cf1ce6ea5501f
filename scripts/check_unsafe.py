#!/usr/bin/env python3
"""Fail if `unsafe` or an environment read appears outside the audited
executor files, or if those files grow past what a reviewer can read in
a sitting.

The workspace's safety story (README "Safety & verification") rests on
unsafe code being confined to two audited sites in `cora-exec`: the VM's
shared-output block dispatch (`crates/exec/src/vm/parallel.rs`) and the
work-stealing runtime's parked-worker handoff
(`crates/exec/src/runtime.rs`). Every other crate carries
`#![forbid(unsafe_code)]`; this script is the belt to that suspender —
it greps the whole tree so a stray `#[allow(unsafe_code)]` added
anywhere else fails CI even before rustc sees it.

The same two files are the only library code that reads the process
environment (`CORA_NUM_THREADS` in the runtime, `CORA_CHECK_DISJOINT`
in the dispatch): everything else is configured through fields and
constructors, so `env::var` / `env::vars` (and their `_os` forms)
anywhere else under `crates/*/src` fails too. `env::args` — the bench
binaries' command lines — is not a match.

Doc comments and line comments are stripped before matching, so prose
*about* unsafety (safety comments, module docs) does not count.

Two size tripwires keep the confinement meaningful: the VM's unsafe
module may not exceed `MAX_UNSAFE_MODULE_LINES`, and no file under
`crates/exec/src/` may exceed `MAX_EXEC_FILE_LINES` (the executor was
once a single 6k-line `vm.rs`; this stops it re-accreting).
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# The only files allowed to contain the token `unsafe`, and the only
# ones under `crates/*/src` allowed to read the environment.
VM_UNSAFE_MODULE = Path("crates/exec/src/vm/parallel.rs")
ALLOWED = {
    VM_UNSAFE_MODULE,
    Path("crates/exec/src/runtime.rs"),
}

MAX_UNSAFE_MODULE_LINES = 800
MAX_EXEC_FILE_LINES = 2000
EXEC_SRC = Path("crates/exec/src")

# Directories scanned for Rust sources.
SCAN_DIRS = ["crates", "src", "tests", "examples"]

UNSAFE_RE = re.compile(r"\bunsafe\b")
ENV_READ_RE = re.compile(r"\benv::vars?(_os)?\b")


def is_crate_src(rel: Path) -> bool:
    """True for `crates/<name>/src/**`."""
    return len(rel.parts) > 3 and rel.parts[0] == "crates" and rel.parts[2] == "src"


def strip_comments(text: str) -> str:
    """Remove line comments (incl. doc comments) and block comments."""
    text = re.sub(r"//[^\n]*", "", text)
    # Preserve line numbering when dropping block comments.
    text = re.sub(
        r"/\*.*?\*/", lambda m: "\n" * m.group(0).count("\n"), text, flags=re.DOTALL
    )
    return text


def line_count(path: Path) -> int:
    return len(path.read_text(encoding="utf-8").splitlines())


def oversized() -> list[str]:
    """Files past the re-accretion tripwires."""
    out: list[str] = []
    for path in sorted((ROOT / EXEC_SRC).rglob("*.rs")):
        rel = path.relative_to(ROOT)
        limit = MAX_UNSAFE_MODULE_LINES if rel == VM_UNSAFE_MODULE else MAX_EXEC_FILE_LINES
        n = line_count(path)
        if n > limit:
            out.append(f"{rel}: {n} lines (limit {limit})")
    return out


def main() -> int:
    if not (ROOT / VM_UNSAFE_MODULE).is_file():
        print(f"check_unsafe: {VM_UNSAFE_MODULE} is missing", file=sys.stderr)
        return 1
    too_big = oversized()
    if too_big:
        print("executor files past their size limit:", file=sys.stderr)
        for o in too_big:
            print(f"  {o}", file=sys.stderr)
        return 1
    offenders: list[str] = []
    for d in SCAN_DIRS:
        base = ROOT / d
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*.rs")):
            rel = path.relative_to(ROOT)
            if "target" in rel.parts:
                continue
            if rel in ALLOWED:
                continue
            body = strip_comments(path.read_text(encoding="utf-8"))
            for lineno, line in enumerate(body.splitlines(), start=1):
                if UNSAFE_RE.search(line) or (
                    is_crate_src(rel) and ENV_READ_RE.search(line)
                ):
                    offenders.append(f"{rel}:{lineno}: {line.strip()}")
    if offenders:
        print(
            "`unsafe` or an environment read outside the audited executor files:",
            file=sys.stderr,
        )
        for o in offenders:
            print(f"  {o}", file=sys.stderr)
        print(
            f"\nOnly {VM_UNSAFE_MODULE} and crates/exec/src/runtime.rs may "
            "contain unsafe code or read the environment; see README "
            "'Safety & verification' and 'Environment knobs'.",
            file=sys.stderr,
        )
        return 1
    print(
        "check_unsafe: no unsafe and no environment read outside "
        f"{sorted(str(p) for p in ALLOWED)}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Count non-test source lines under crates/*/src — ROADMAP aim 2's meter.

One rule, so the numbers chain from PR to PR:

* every `crates/*/src/**/*.rs` file counts up to (not including) its
  trailing `#[cfg(test)]` — the last line that is exactly that attribute,
  by convention the one opening `mod tests` — or whole when it has none;
* test-only files are skipped: those a `#[cfg(test)] mod name;` pair
  declares (`vm/testutil.rs`);
* two columns: `raw` (every line) and `code` (non-blank lines that are
  not `//` comments — doc comments are comments).

Prints one row per crate, then per file. With `--diff OTHER_CHECKOUT` it
prints the deltas against the same count of another checkout (rows that
did not change are omitted) — files present on one side only count as 0
on the other.

Informational: always exits 0 when the tree is readable.

Usage:
    python3 scripts/count_loc.py [--diff OTHER_CHECKOUT] [ROOT]
"""

from __future__ import annotations

import pathlib
import re
import sys

TEST_ATTR = "#[cfg(test)]"
TEST_FILE_RE = re.compile(r"^#\[cfg\(test\)\]\n(?:pub(?:\([^)]*\))? )?mod (\w+);", re.MULTILINE)


def count(root: pathlib.Path) -> dict[str, tuple[int, int]]:
    """`{path relative to root: (raw, code)}` over crates/*/src."""
    files = sorted(root.glob("crates/*/src/**/*.rs"))
    texts = {path: path.read_text() for path in files}
    test_only = set()
    for path, text in texts.items():
        # `mod name;` in dir/mod.rs or dir/lib.rs is dir/name.rs; in
        # dir/x.rs it is dir/x/name.rs.
        top = path.name in ("mod.rs", "lib.rs", "main.rs")
        home = path.parent if top else path.parent / path.stem
        for name in TEST_FILE_RE.findall(text):
            test_only |= {home / f"{name}.rs", home / name / "mod.rs"}
    out = {}
    for path, text in texts.items():
        if path in test_only:
            continue
        lines = text.splitlines()
        if TEST_ATTR in lines:
            lines = lines[: len(lines) - 1 - lines[::-1].index(TEST_ATTR)]
        code = [s for s in (line.strip() for line in lines) if s and not s.startswith("//")]
        out[str(path.relative_to(root))] = (len(lines), len(code))
    return out


def by_crate(files: dict[str, tuple[int, int]]) -> dict[str, tuple[int, int]]:
    crates: dict[str, tuple[int, int]] = {}
    for path, (raw, code) in files.items():
        name = "/".join(path.split("/")[:2])
        have = crates.get(name, (0, 0))
        crates[name] = (have[0] + raw, have[1] + code)
    return crates


def table(title: str, rows: dict[str, tuple[int, int]], signed: bool) -> None:
    fmt = "{:+8d} {:+8d}  {}" if signed else "{:8d} {:8d}  {}"
    print(f"{'raw':>8} {'code':>8}  {title}")
    for name, (raw, code) in sorted(rows.items()):
        print(fmt.format(raw, code, name))
    total = [sum(v[i] for v in rows.values()) for i in (0, 1)]
    print(fmt.format(total[0], total[1], "total"))


def main() -> int:
    args = sys.argv[1:]
    other = None
    if "--diff" in args:
        at = args.index("--diff")
        if at + 1 >= len(args):
            print(__doc__, file=sys.stderr)
            return 2
        other = pathlib.Path(args[at + 1])
        del args[at : at + 2]
    root = pathlib.Path(args[0]) if args else pathlib.Path(__file__).resolve().parent.parent
    here = count(root)
    if other is None:
        table("crate", by_crate(here), signed=False)
        print()
        table("file", here, signed=False)
        return 0
    there = count(other)
    delta = {
        path: tuple(here.get(path, (0, 0))[i] - there.get(path, (0, 0))[i] for i in (0, 1))
        for path in sorted(set(here) | set(there))
    }
    delta = {path: d for path, d in delta.items() if d != (0, 0)}
    table(f"crate (this checkout − {other})", by_crate(delta), signed=True)
    print()
    table("file", delta, signed=True)
    both = [d for path, d in delta.items() if path in here and path in there]
    print(
        "{:+8d} {:+8d}  in files present at both".format(
            sum(d[0] for d in both), sum(d[1] for d in both)
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

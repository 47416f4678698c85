#!/usr/bin/env python3
"""Print Rust line counts per crate under crates/ as a markdown table.

Usage: loc.py

Counts every line of every `.rs` file below each `crates/<name>/`
directory (sources, tests, benches and examples alike), skipping build
output. Run it from anywhere: paths resolve against the repository root
this script lives in. The table is suitable for `$GITHUB_STEP_SUMMARY`.
"""

import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def count(crate):
    files = lines = 0
    for path in crate.rglob("*.rs"):
        if "target" in path.relative_to(crate).parts:
            continue
        files += 1
        with path.open("rb") as f:
            lines += sum(1 for _ in f)
    return files, lines


def main():
    rows = [(c.name, *count(c)) for c in sorted((ROOT / "crates").iterdir()) if c.is_dir()]
    print("| crate | .rs files | lines |")
    print("|---|---:|---:|")
    for name, files, lines in rows:
        print(f"| {name} | {files} | {lines} |")
    print(f"| **total** | {sum(r[1] for r in rows)} | {sum(r[2] for r in rows)} |")


if __name__ == "__main__":
    main()

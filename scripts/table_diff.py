#!/usr/bin/env python3
"""Compare two table sets written by ``table_set.py``, number by number.

For each file present in both directories whose bytes differ, the numbers
of its JSON or CSV content are walked in step (a CSV is a list of rows
keyed by its header), and one line per key gives how many numbers differ
and the largest absolute and relative deviation; list positions are
collapsed to ``[]`` in the key.  What is not a numeric deviation is listed
on its own lines: a key on one side only, lists of different lengths
(aligned, so that rows added in the middle show as such), a changed
string or flag, and files on one side only.  Other files are compared as
lists of lines.  The script always exits 0.

Example:
    python3 scripts/table_diff.py /tmp/a /tmp/b
"""

import argparse
import csv
import difflib
import io
import json
import math
import sys
from pathlib import Path


class FileDiff:
    """The deviations found in one pair of files."""

    def __init__(self) -> None:
        self.numeric: dict[str, list] = {}  # key -> [count, max abs, max rel]
        self.other: list[str] = []

    def number(self, key: str, a: float, b: float) -> None:
        d = abs(a - b)
        stat = self.numeric.setdefault(key, [0, 0.0, 0.0])
        stat[0] += 1
        stat[1] = max(stat[1], d)
        stat[2] = max(stat[2], d / max(abs(a), abs(b)))


def _number(text: str):
    """A CSV cell as a float when it is one, else as its text."""
    try:
        return float(text)
    except ValueError:
        return text


def load(path: Path):
    text = path.read_text()
    if path.suffix == ".json":
        return json.loads(text)
    if path.suffix == ".csv":
        return [{k: _number(v) for k, v in row.items()}
                for row in csv.DictReader(io.StringIO(text))]
    return text.splitlines()


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _short(x) -> str:
    text = json.dumps(x)
    return text if len(text) <= 60 else text[:57] + "..."


def walk(a, b, path: str, key: str, out: FileDiff) -> None:
    """Record every deviation between ``a`` and ``b`` found at ``path``;
    ``key`` is ``path`` with list positions collapsed."""
    if _is_number(a) and _is_number(b):
        if a == b or (a != a and b != b):  # equal, or both NaN
            return
        if math.isfinite(a) and math.isfinite(b):
            out.number(key, a, b)
        else:
            out.other.append(f"{path}: {a!r} -> {b!r}")
    elif isinstance(a, dict) and isinstance(b, dict):
        for k in [*a, *(k for k in b if k not in a)]:
            sub, subkey = (f"{path}.{k}", f"{key}.{k}") if path else (str(k), str(k))
            if k not in b:
                out.other.append(f"{sub}: only in A")
            elif k not in a:
                out.other.append(f"{sub}: only in B")
            else:
                walk(a[k], b[k], sub, subkey, out)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) == len(b):
            blocks = [("replace", 0, len(a), 0, len(b))]
        else:
            matcher = difflib.SequenceMatcher(
                None, [json.dumps(x) for x in a], [json.dumps(x) for x in b], autojunk=False
            )
            blocks = matcher.get_opcodes()
        for tag, i1, i2, j1, j2 in blocks:
            if tag == "equal":
                continue
            if i2 - i1 == j2 - j1:
                for i, j in zip(range(i1, i2), range(j1, j2)):
                    walk(a[i], b[j], f"{path}[{i}]", f"{key}[]", out)
            else:
                out.other.append(f"{path}[{i1}:{i2}] ({i2 - i1} items) -> "
                                 f"[{j1}:{j2}] ({j2 - j1} items)")
    elif type(a) is not type(b) or a != b:
        out.other.append(f"{path or '(whole file)'}: {_short(a)} -> {_short(b)}")


def compare(a_dir: Path, b_dir: Path) -> list[str]:
    """The report's lines for two table-set directories."""
    names_a = {p.relative_to(a_dir) for p in a_dir.rglob("*") if p.is_file()}
    names_b = {p.relative_to(b_dir) for p in b_dir.rglob("*") if p.is_file()}
    lines, same, differ = [], 0, 0
    for name in sorted(names_a | names_b):
        if name not in names_b:
            lines.append(f"only in A: {name}")
            continue
        if name not in names_a:
            lines.append(f"only in B: {name}")
            continue
        pa, pb = a_dir / name, b_dir / name
        if pa.read_bytes() == pb.read_bytes():
            same += 1
            continue
        differ += 1
        out = FileDiff()
        walk(load(pa), load(pb), "", "", out)
        lines.append(f"{name}")
        for key, (count, dabs, drel) in out.numeric.items():
            lines.append(f"  {key or '(value)'}: {count} differ, "
                         f"max abs {dabs:.3g}, max rel {drel:.3g}")
        lines.extend(f"  {msg}" for msg in out.other)
        if not out.numeric and not out.other:
            lines.append("  same content, different bytes")
    only = len(names_a ^ names_b)
    lines.append(f"{same} files byte-identical, {differ} differ, {only} on one side only")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a", type=Path, help="the first table set (A)")
    ap.add_argument("b", type=Path, help="the second table set (B)")
    args = ap.parse_args(argv)
    print("\n".join(compare(args.a, args.b)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""JSON-line check for the gate benches' smoke output.

Every line of each BENCH_*_smoke.json in the given directory must parse as
a JSON object with a string "bench" field. NaN/Infinity tokens are rejected
too: the gates write non-finite doubles as null.

Usage: check_bench_json.py <bench_build_dir>   (exit 0 clean, 1 on a bad line)
"""
import json
import sys
from pathlib import Path


def reject_constant(token):
    raise ValueError(f"non-finite number {token}")


def main() -> int:
    root = Path(sys.argv[1] if len(sys.argv) > 1 else ".")
    files = sorted(root.glob("BENCH_*_smoke.json"))
    if not files:
        print(f"FAILED: no BENCH_*_smoke.json in {root}", file=sys.stderr)
        return 1
    bad = 0
    lines = 0
    for path in files:
        for n, line in enumerate(path.read_text().splitlines(), start=1):
            lines += 1
            try:
                obj = json.loads(line, parse_constant=reject_constant)
                ok = isinstance(obj, dict) and isinstance(obj.get("bench"), str)
                why = "not an object with a string 'bench' field"
            except ValueError as err:
                ok, why = False, str(err)
            if not ok:
                print(f"FAILED: {path.name}:{n}: {why}", file=sys.stderr)
                bad += 1
    if bad:
        return 1
    print(f"check_bench_json: {lines} lines in {len(files)} files are JSON objects "
          "with a string 'bench' field")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Check perfbench result lines for correctness.

    python3 perfbench/run.py --workload <name> ... | tail -n 1 > r.json
    python3 tools/check_perfbench_result.py r.json [more.json ...]

Each file holds the last stdout line of one perfbench run. Exits 1
unless every run reads "correct": true with 0 failed operations: every
answer matched the synchronous fp32 Engine bit for bit and no request
errored. Performance figures are printed, not gated.
"""

import json
import sys


def main() -> int:
    ok = True
    for path in sys.argv[1:]:
        try:
            with open(path) as f:
                result = json.load(f)
        except (OSError, ValueError) as e:
            print(f"{path}: no result line ({e})")
            ok = False
            continue
        metrics = {name: m.get("value")
                   for name, m in result.get("metrics", {}).items()}
        passed = result.get("correct") is True and \
            result.get("failed") == 0
        print(f"{path}: correct={result.get('correct')} "
              f"failed={result.get('failed')} "
              f"attempted={result.get('attempted')} {metrics} "
              f"{'ok' if passed else 'FAIL'}")
        ok &= passed
    if not sys.argv[1:]:
        print("usage: check_perfbench_result.py RESULT.json...")
        ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

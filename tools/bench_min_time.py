#!/usr/bin/env python3
"""Print the --benchmark_min_time flag a google-benchmark binary accepts.

libbenchmark 1.8 and later read the value with a unit suffix (`0.2s`);
1.7 and earlier reject the suffix ("expected to be a double") and want
a bare number of seconds. This probes the binary once with the
suffixed form and falls back to the bare one:

    ./build/micro_ops --benchmark_filter=BM_CacheHitByPrecision \\
        "$(python3 tools/bench_min_time.py ./build/micro_ops 0.2)"

Usage: bench_min_time.py BINARY SECONDS
"""

import subprocess
import sys


def min_time_flag(binary: str, seconds: str) -> str:
    """The min-time flag for `seconds` in the form `binary` parses."""
    suffixed = f"--benchmark_min_time={seconds}s"
    probe = subprocess.run(
        [binary, "--benchmark_list_tests=true", "--benchmark_filter=^$",
         suffixed],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    if probe.returncode == 0:
        return suffixed
    return f"--benchmark_min_time={seconds}"


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    try:
        float(sys.argv[2])
    except ValueError:
        print(f"bench_min_time: not a number of seconds: {sys.argv[2]!r}",
              file=sys.stderr)
        return 2
    print(min_time_flag(sys.argv[1], sys.argv[2]))
    return 0


if __name__ == "__main__":
    sys.exit(main())

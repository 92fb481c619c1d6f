#!/usr/bin/env python3
"""Validate MetricsRegistry Prometheus-text exposition dumps.

Reads one or two exposition files written by MetricsRegistry::expose
(serving_daemon --metrics-out). With two files they must be scrapes
of the SAME registry in chronological order (older first). Fails
(exit 1) unless:

1. every non-comment line parses as `name{labels} value` with a
   valid metric name, balanced quoted labels, and a finite value;

2. every sample is preceded by `# TYPE` for its family (histogram
   samples fall under the base family name; `<fam>_window` summaries
   carry their own TYPE line), and no family has two TYPE lines;

3. label blocks are canonical: keys sorted, no duplicate keys
   (the registry renders sorted labels; `le`/`quantile` are
   renderer-appended and exempt from the sort check);

4. lifetime histogram `_bucket` series are cumulative in `le`,
   ending with `+Inf` equal to the family `_count`;

5. required families from the serving spine are present (the daemon
   exercises every layer, so a missing family means wiring broke);

6. across two scrapes, counters and lifetime histogram buckets are
   monotone non-decreasing — windowed `_window` summaries are
   exempt by design (samples age out of the window).

Usage: check_metrics.py metrics.prom [later_metrics.prom]
"""

import math
import re
import sys

REQUIRED_FAMILIES = [
    "ccsa_requests_total",
    "ccsa_request_latency_us",
    "ccsa_engine_phase_us",
    "ccsa_queue_depth",
    "ccsa_cache_residents",
    "ccsa_cache_resident_bytes",
    "ccsa_encode_subtree_nodes_total",
    "ccsa_subtree_store_residents",
    "ccsa_subtree_store_resident_bytes",
    "ccsa_subtree_store_evictions_total",
    "ccsa_slo_burn_rate",
    "ccsa_trace_spans_dropped_total",
]

VALID_TYPES = {"counter", "gauge", "histogram", "summary"}
NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def fail(msg: str) -> int:
    print(f"check_metrics: FAIL: {msg}")
    return 1


def base_family(name: str) -> str:
    """Map a sample name to the family its TYPE line declares."""
    if name.endswith("_window") or "_window_" in name:
        # <fam>_window{quantile=...}, <fam>_window_sum/_count belong
        # to the summary family <fam>_window.
        return name.split("_window")[0] + "_window"
    for suffix in ("_bucket", "_sum", "_count"):
        if name.endswith(suffix):
            return name[: -len(suffix)]
    return name


def parse(path: str):
    """Parse an exposition file.

    Returns (samples, types) where samples maps
    (name, rendered-labels) -> float and types maps family -> type,
    or a string error message.
    """
    try:
        with open(path) as f:
            lines = f.read().splitlines()
    except OSError as e:
        return f"cannot read {path}: {e}"

    samples = {}
    types = {}
    for i, line in enumerate(lines, 1):
        where = f"{path}:{i}"
        if not line.strip():
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4 or parts[3] not in VALID_TYPES:
                return f"{where}: malformed TYPE line: {line!r}"
            fam = parts[2]
            if fam in types:
                return f"{where}: duplicate TYPE for {fam}"
            types[fam] = parts[3]
            continue
        if line.startswith("#"):
            continue

        m = re.match(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)"
                     r"(\{.*\})?\s+(\S+)$", line)
        if not m:
            return f"{where}: unparseable sample line: {line!r}"
        name, labels, value = m.group(1), m.group(2) or "", m.group(3)
        try:
            fval = float(value)
        except ValueError:
            return f"{where}: bad value {value!r}"
        if not math.isfinite(fval):
            return f"{where}: non-finite value {value!r}"

        if labels:
            inner = labels[1:-1]
            pairs = LABEL_RE.findall(inner)
            rebuilt = ",".join(f'{k}="{v}"' for k, v in pairs)
            if rebuilt != inner:
                return f"{where}: malformed label block: {labels!r}"
            keys = [k for k, _ in pairs]
            if len(keys) != len(set(keys)):
                return f"{where}: duplicate label keys: {labels!r}"
            base = [k for k in keys if k not in ("le", "quantile")]
            if base != sorted(base):
                return f"{where}: labels not sorted: {labels!r}"

        fam = base_family(name)
        if fam not in types:
            return f"{where}: sample {name!r} has no preceding " \
                   f"# TYPE {fam}"
        key = (name, labels)
        if key in samples:
            return f"{where}: duplicate series {name}{labels}"
        samples[key] = fval
    if not samples:
        return f"{path}: no samples"
    return samples, types


def le_value(labels: str) -> float:
    m = re.search(r'le="([^"]*)"', labels)
    bound = m.group(1)
    return math.inf if bound == "+Inf" else float(bound)


def strip_label(labels: str, key: str) -> str:
    """Drop one key from a rendered label block (series grouping)."""
    inner = labels[1:-1] if labels else ""
    kept = [p for p in LABEL_RE.findall(inner) if p[0] != key]
    if not kept:
        return ""
    return "{" + ",".join(f'{k}="{v}"' for k, v in kept) + "}"


def check_histograms(samples, types) -> str:
    """Cumulative buckets, +Inf == _count, per labeled series."""
    series = {}
    for (name, labels), value in samples.items():
        if not name.endswith("_bucket"):
            continue
        fam = name[: -len("_bucket")]
        if types.get(fam) != "histogram":
            return f"{name}{labels}: _bucket outside a histogram"
        series.setdefault((fam, strip_label(labels, "le")),
                          []).append((le_value(labels), value))
    for (fam, labels), buckets in series.items():
        buckets.sort()
        prev = 0.0
        for le, cum in buckets:
            if cum < prev:
                return (f"{fam}{labels}: bucket le={le} count {cum}"
                        f" < previous {prev} (not cumulative)")
            prev = cum
        if buckets[-1][0] != math.inf:
            return f"{fam}{labels}: missing le=+Inf bucket"
        count = samples.get((fam + "_count", labels))
        if count is None:
            return f"{fam}{labels}: histogram without _count"
        if buckets[-1][1] != count:
            return (f"{fam}{labels}: +Inf bucket {buckets[-1][1]} "
                    f"!= _count {count}")
    return ""


def monotone_exempt(name: str, types) -> bool:
    """Series allowed to decrease between scrapes."""
    fam = base_family(name)
    kind = types.get(fam, "")
    return kind in ("gauge", "summary")


def main() -> int:
    if len(sys.argv) not in (2, 3):
        print(__doc__)
        return 2

    parsed = []
    for path in sys.argv[1:]:
        result = parse(path)
        if isinstance(result, str):
            return fail(result)
        parsed.append(result)

    for path, (samples, types) in zip(sys.argv[1:], parsed):
        for fam in REQUIRED_FAMILIES:
            if fam not in types:
                return fail(f"{path}: required family {fam} missing")
        err = check_histograms(samples, types)
        if err:
            return fail(f"{path}: {err}")

    if len(parsed) == 2:
        (old, old_types), (new, _) = parsed
        for key, value in old.items():
            name, labels = key
            if monotone_exempt(name, old_types):
                continue
            later = new.get(key)
            if later is None:
                return fail(f"series {name}{labels} present in "
                            f"{sys.argv[1]} but gone in "
                            f"{sys.argv[2]}")
            if later < value:
                return fail(f"series {name}{labels} went backwards "
                            f"across scrapes: {value} -> {later}")

    n = len(parsed[0][0])
    fams = len(parsed[0][1])
    mode = "two scrapes" if len(parsed) == 2 else "one scrape"
    print(f"check_metrics: ok: {n} series across {fams} families "
          f"({mode})")
    return 0


if __name__ == "__main__":
    sys.exit(main())

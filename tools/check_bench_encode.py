#!/usr/bin/env python3
"""Gate the encode, matmul-dispatch, and latent-store benchmarks.

Reads the google-benchmark JSON written by

    micro_ops --benchmark_filter='BM_EncodeLevelBatchedVsPerNode|BM_EncodeNoGradVsTaped|BM_EncodeHashConsed|BM_MatmulKernel|BM_MatmulDispatch|BM_CacheHitByPrecision|BM_F16DecodeDispatch|BM_ParseAndPrune|BM_CompareManyAllHit' \
              --benchmark_out=BENCH_encode.json --benchmark_out_format=json

and fails (exit 1) when:

 - the level-batched encode path loses its edge over the per-node
   oracle (a kernel or scheduling regression shows up here as a
   collapsed ratio);
 - the vectorized matmul kernel family drops below 1.5x the scalar
   fallback at the largest benched size — skipped (with a note) when
   the JSON carries no non-scalar dispatch row, i.e. the runner has
   no AVX2+FMA;
 - a quantized cache hit path (lookup + dequantize) collapses
   relative to fp32 hits. The floors there are loose: dequantize IS
   slower than memcpy, the gate only catches pathological
   regressions like decoding falling off a fast path entirely;
 - the tape-free (InferenceScope) encode loses its edge over the
   taped forward on the realistic-AST shape — the acceptance bar is
   1.3x, with loose never-slower floors on the other shapes;
 - the hash-consed encode loses its edge over the full level-batched
   encode: >= 3x on a commit-style child whose parent's subtree
   states are stored, and never slower on a cold tree or a cold
   same-family forest (only repeats inside the call are shared);
 - the F16C fp16 decode family drops below 2x the portable
   bit-twiddling oracle — skipped (with a note) when the JSON has no
   f16c row, i.e. the runner has no F16C;
 - the one-pass front end (span tokens, pruned tree emitted
   directly) drops below 2x the reference pipeline of
   tests/oracle_frontend.hh on commit-style children.

Floors are deliberately below the typically observed ratios
(~3.8x bushy, ~3x ast, ~1.0x chain; ~2-4x avx2-fma) so CI noise does
not flap, while real regressions still fail loudly.

BM_CompareManyAllHit (an all-hit 56-pair tournament through one
Engine) rides in the same run and snapshot without a floor: it has
no in-run baseline to take a ratio against, and one-run ratio floors
flake on a shared host.
"""

import statistics
import sys

import bench_gate


FLOORS = {
    # shape -> minimum batched/per-node throughput ratio. The chain
    # floor guards against gross regressions only: chains dispatch to
    # the per-node path (true ratio ~1.0), so on a contended runner
    # the two measurements are the same code path plus noise.
    "bushy": 2.0,
    "ast": 1.5,
    "chain": 0.7,
}


# Vectorized-vs-scalar dispatch floor at the largest benched size
# (the acceptance bar is 1.5x; typical observed is well above).
DISPATCH_FLOOR = 1.5

# Quantized hit path vs fp32 hit path. Dequantize is real work, so
# fp16 only catches a collapse (e.g. per-hit allocation regressions);
# int8 decodes one multiply per element and must stay close to fp32
# (a per-element Tensor::data() branch once cost it ~46% unnoticed).
CACHE_HIT_FLOORS = {
    "fp16": 0.10,
    "int8": 0.85,
}

# Hash-consed vs full level-batched encode, per BM_EncodeHashConsed
# row (observed ~6-9x commit, ~2x cold, ~5-6x forest).
HASHCONS_FLOORS = {
    "commit": 3.0,
    "cold": 1.0,
    "forest": 1.0,
}

# No-grad (InferenceScope) vs taped encode throughput. The ast floor
# is the PR's acceptance bar; chain/bushy floors only assert the
# tape-free path is never meaningfully slower (observed ~3.5x chain,
# ~1.2x bushy, ~1.5x ast — tape overhead scales with ops per node,
# which level batching amortises on wide trees).
NOGRAD_FLOORS = {
    "ast": 1.3,
    "bushy": 0.9,
    "chain": 0.9,
}

# F16C decode vs portable bit-twiddling (observed ~19x; the bar is
# the "fp16 hits stop being 3x slower than fp32" acceptance line).
F16C_FLOOR = 2.0

# One-pass parseAndPrune vs the reference lex + full parse +
# pruneToFunctions copy, per commit-style child (observed ~2.9-3.1x;
# the acceptance bar is 2x).
PARSE_FLOOR = 2.0


def collect(data, name, split_label=False):
    """label -> median items/s over raw repetitions of one bench."""
    samples = {}
    for bench in data.get("benchmarks", []):
        bench_name = bench.get("name", "")
        if not (bench_name == name or
                bench_name.startswith(name + "/")):
            continue
        # With --benchmark_repetitions the JSON carries per-repetition
        # entries plus mean/median/stddev aggregates; keep the raw
        # repetitions (run_type absent on old benchmark versions).
        if bench.get("run_type", "iteration") != "iteration":
            continue
        # Rows skipped at runtime (e.g. the f16c row on a CPU without
        # F16C) carry an error and no throughput.
        if "items_per_second" not in bench:
            continue
        label = bench.get("label", "")
        if split_label and "/" not in label:
            continue
        key = tuple(label.split("/", 1)) if split_label else label
        samples.setdefault(key, []).append(bench["items_per_second"])
    # Median across repetitions shrugs off one noisy measurement.
    return {key: statistics.median(vals)
            for key, vals in samples.items()}


def dispatch_samples(data):
    """(kernel_name, size) -> median items/s for BM_MatmulDispatch."""
    samples = {}
    for bench in data.get("benchmarks", []):
        name = bench.get("name", "")
        if not name.startswith("BM_MatmulDispatch/"):
            continue
        if bench.get("run_type", "iteration") != "iteration":
            continue
        label = bench.get("label", "")
        if not label.startswith("dispatch:"):
            continue
        size = int(name.split("/")[-1])
        kernel = label[len("dispatch:"):]
        samples.setdefault((kernel, size), []).append(
            bench["items_per_second"])
    return {key: statistics.median(vals)
            for key, vals in samples.items()}


def main() -> int:
    data = bench_gate.load_json(sys.argv, "BENCH_encode.json")
    ok = True

    perf = collect(data, "BM_EncodeLevelBatchedVsPerNode",
                   split_label=True)
    for shape, floor in FLOORS.items():
        batched = perf.get((shape, "level-batched"))
        pernode = perf.get((shape, "per-node"))
        detail = ""
        if batched is not None and pernode is not None:
            detail = (f"level-batched {batched:12.0f} nodes/s  "
                      f"per-node {pernode:12.0f} nodes/s")
        ok &= bench_gate.gate_ratio(f"{shape:6s}", batched, pernode,
                                    floor, detail)

    dispatch = dispatch_samples(data)
    simd_rows = {key: v for key, v in dispatch.items()
                 if key[0] != "scalar"}
    if simd_rows:
        size = max(s for _, s in simd_rows)
        kernel = next(k for k, s in simd_rows if s == size)
        ok &= bench_gate.gate_ratio(
            f"{kernel} n={size}", dispatch.get((kernel, size)),
            dispatch.get(("scalar", size)), DISPATCH_FLOOR)
    elif dispatch:
        # Scalar-only hardware (or a forced-scalar leg): nothing to
        # compare, and failing would punish the runner, not the code.
        print("matmul dispatch: no vectorized rows, gate skipped")

    nograd = collect(data, "BM_EncodeNoGradVsTaped",
                     split_label=True)
    for shape, floor in NOGRAD_FLOORS.items():
        free = nograd.get((shape, "nograd"))
        taped = nograd.get((shape, "taped"))
        detail = ""
        if free is not None and taped is not None:
            detail = (f"nograd {free:12.0f} nodes/s  "
                      f"taped {taped:12.0f} nodes/s")
        ok &= bench_gate.gate_ratio(f"nograd {shape:6s}", free,
                                    taped, floor, detail)

    hashcons = collect(data, "BM_EncodeHashConsed", split_label=True)
    for row, floor in HASHCONS_FLOORS.items():
        consed = hashcons.get((row, "hash-consed"))
        full = hashcons.get((row, "level-batched"))
        detail = ""
        if consed is not None and full is not None:
            detail = (f"hash-consed {consed:10.0f} trees/s  "
                      f"level-batched {full:10.0f} trees/s")
        ok &= bench_gate.gate_ratio(f"hash-consed {row:6s}", consed,
                                    full, floor, detail)

    f16 = collect(data, "BM_F16DecodeDispatch")
    if f16.get("f16:f16c") is not None:
        ok &= bench_gate.gate_ratio("f16c decode", f16.get("f16:f16c"),
                                    f16.get("f16:portable"),
                                    F16C_FLOOR)
    elif f16:
        # No F16C on this runner: the hardware row was skipped, and
        # the portable row alone has nothing to gate against.
        print("f16 dispatch: no f16c row, gate skipped")

    parse = collect(data, "BM_ParseAndPrune")
    ok &= bench_gate.gate_ratio("parse one-pass",
                                parse.get("commit/one-pass"),
                                parse.get("commit/oracle"), PARSE_FLOOR)

    hits = collect(data, "BM_CacheHitByPrecision")
    fp32 = hits.get("cache-hit:fp32")
    if hits:
        for prec, floor in CACHE_HIT_FLOORS.items():
            ok &= bench_gate.gate_ratio(
                f"cache-hit {prec}", hits.get(f"cache-hit:{prec}"),
                fp32, floor)

    return bench_gate.finish(ok)


if __name__ == "__main__":
    sys.exit(main())

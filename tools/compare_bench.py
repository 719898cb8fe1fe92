#!/usr/bin/env python3
"""Compare a fresh arnet-bench-v1 run against a committed baseline.

Usage: compare_bench.py [--threshold PCT] [--floor NAME=RATIO ...]
                        BASELINE CANDIDATE [BASELINE CANDIDATE...]
       compare_bench.py --pair OFF:ON:MAX_RATIO FILE [FILE...]

For each (baseline, candidate) pair, matches benchmarks by name and fails
(exit 1) when a candidate's ops_per_sec drops more than --threshold percent
(default 20) below the baseline. Benchmarks present only on one side are
reported but never fatal — new benches land without a baseline, and retired
ones linger in old baselines until they are regenerated.

`--floor NAME=RATIO` inverts the check into a speedup gate: the candidate
must run at least RATIO times the baseline's ops_per_sec. Used with frozen
pre-optimization baselines (tools/BENCH_pre_simd_*.json) to pin the SIMD
and event-batching wins — a change that quietly serializes the fast path
again fails CI even if it is "only" a regression back to scalar speed. A
floored name missing from either file is fatal (the gate cannot silently
evaporate).

`--pair OFF:ON:MAX_RATIO` gates two benchmarks *within* each given file
instead of across files: the ON case's wall time must stay within MAX_RATIO
of the OFF case's (equivalently ops[ON] >= ops[OFF] / MAX_RATIO). Used for
the telemetry-overhead budget — one CloudRidAR `OffloadSession` over a
simulated access link (bench/micro_transport.cpp) with the full tracing +
sampling + SLO stack attached must stay within a few percent of the bare
run. Both names missing is fatal: the gate cannot silently evaporate.

CI wires this between the bench run and the artifact upload, so a hot-path
regression fails the job instead of silently becoming the next baseline.
"""
import argparse
import json
import sys


def load(path):
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema") != "arnet-bench-v1":
        raise ValueError(f"{path}: bad schema id: {doc.get('schema')!r}")
    return {b["name"]: b for b in doc.get("benchmarks", [])}


def compare_pair(baseline_path, candidate_path, threshold_pct, floors):
    try:
        baseline = load(baseline_path)
        candidate = load(candidate_path)
    except (OSError, json.JSONDecodeError, ValueError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    rc = 0
    # Floors join the name set: a floored name that is in neither file
    # (renamed or retired) fails instead of dropping out of the loop.
    for name in sorted(baseline.keys() | candidate.keys() | floors.keys()):
        b = baseline.get(name)
        c = candidate.get(name)
        floor = floors.get(name)
        if b is None or c is None:
            if floor is not None:
                side = ("baseline and candidate" if b is None and c is None
                        else "baseline" if b is None else "candidate")
                print(f"  FAIL     {name}: floor x{floor:g} set but missing "
                      f"from {side}")
                rc = 1
            elif b is None:
                print(f"  NEW      {name}: no baseline entry "
                      f"({c['ops_per_sec']:.4g} ops/s)")
            else:
                print(f"  MISSING  {name}: in baseline but not in candidate")
            continue
        base_ops = b["ops_per_sec"]
        cand_ops = c["ops_per_sec"]
        ratio = cand_ops / base_ops
        if floor is not None:
            if ratio < floor:
                print(f"  FAIL     {name}: {base_ops:.4g} -> {cand_ops:.4g} ops/s "
                      f"(x{ratio:.2f}, floor x{floor:g})")
                rc = 1
            else:
                print(f"  ok       {name}: {base_ops:.4g} -> {cand_ops:.4g} ops/s "
                      f"(x{ratio:.2f} >= floor x{floor:g})")
            continue
        delta_pct = (ratio - 1.0) * 100
        if delta_pct < -threshold_pct:
            print(f"  FAIL     {name}: {base_ops:.4g} -> {cand_ops:.4g} ops/s "
                  f"({delta_pct:+.1f} %, limit -{threshold_pct:g} %)")
            rc = 1
        else:
            print(f"  ok       {name}: {base_ops:.4g} -> {cand_ops:.4g} ops/s "
                  f"({delta_pct:+.1f} %)")
    return rc


def check_pairs(path, pairs):
    try:
        benches = load(path)
    except (OSError, json.JSONDecodeError, ValueError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    rc = 0
    print(f"{path}:")
    for off_name, on_name, max_ratio in pairs:
        off = benches.get(off_name)
        on = benches.get(on_name)
        if off is None or on is None:
            missing = off_name if off is None else on_name
            print(f"  FAIL     pair {off_name}:{on_name}: {missing!r} "
                  f"missing from {path}")
            rc = 1
            continue
        # ops_per_sec is inversely proportional to cost per iteration, so
        # the slowdown factor of ON relative to OFF is ops[OFF] / ops[ON].
        slowdown = off["ops_per_sec"] / on["ops_per_sec"]
        if slowdown > max_ratio:
            print(f"  FAIL     {on_name}: x{slowdown:.3f} slower than "
                  f"{off_name} (limit x{max_ratio:g})")
            rc = 1
        else:
            print(f"  ok       {on_name}: x{slowdown:.3f} vs {off_name} "
                  f"(limit x{max_ratio:g})")
    return rc


def parse_pair(spec):
    parts = spec.split(":")
    if len(parts) != 3 or not parts[0] or not parts[1]:
        raise argparse.ArgumentTypeError(f"expected OFF:ON:MAX_RATIO, got {spec!r}")
    try:
        ratio = float(parts[2])
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad ratio in {spec!r}")
    if ratio <= 0:
        raise argparse.ArgumentTypeError(f"ratio must be positive: {spec!r}")
    return parts[0], parts[1], ratio


def parse_floor(spec):
    name, sep, ratio = spec.partition("=")
    if not sep or not name:
        raise argparse.ArgumentTypeError(f"expected NAME=RATIO, got {spec!r}")
    try:
        value = float(ratio)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad ratio in {spec!r}")
    if value <= 0:
        raise argparse.ArgumentTypeError(f"ratio must be positive: {spec!r}")
    return name, value


def main(argv):
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--threshold", type=float, default=20.0,
                    help="max allowed ops_per_sec regression in percent (default 20)")
    ap.add_argument("--floor", type=parse_floor, action="append", default=[],
                    metavar="NAME=RATIO",
                    help="require candidate[NAME] >= RATIO * baseline[NAME] "
                         "(speedup gate; repeatable)")
    ap.add_argument("--pair", type=parse_pair, action="append", default=[],
                    metavar="OFF:ON:MAX_RATIO",
                    help="within each file, require benchmark ON to run at "
                         "most MAX_RATIO times slower than OFF (repeatable); "
                         "files are standalone candidates in this mode")
    ap.add_argument("files", nargs="+", metavar="BASELINE CANDIDATE",
                    help="alternating baseline/candidate file pairs "
                         "(standalone files with --pair)")
    args = ap.parse_args(argv[1:])

    rc = 0
    if args.pair:
        for path in args.files:
            rc |= check_pairs(path, args.pair)
        if rc:
            print("benchmark pair gate failed", file=sys.stderr)
        return rc

    if len(args.files) % 2 != 0:
        ap.error("files must come in BASELINE CANDIDATE pairs")
    floors = dict(args.floor)
    for i in range(0, len(args.files), 2):
        baseline_path, candidate_path = args.files[i], args.files[i + 1]
        print(f"{baseline_path} vs {candidate_path}:")
        rc |= compare_pair(baseline_path, candidate_path, args.threshold, floors)
    if rc:
        print("benchmark regression beyond threshold", file=sys.stderr)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv))

#!/usr/bin/env python3
"""Memory gate over one perfbench/run.py output.

    peak_gate.py <run.py stdout> [--max-local MB] [--max-mr MB] [--max-gap MB]

Reads the run's last stdout line (its JSON result) and fails unless
local_peak_rss_mb and mr_peak_rss_mb are under their bounds and the
MapReduce peak exceeds the local peak of the same run by less than the gap
bound.  Both peaks come from fresh processes of one run on one machine, so
the gap normalises itself: it holds where absolute peaks drift with the
runner's allocator or page size.
"""
import argparse
import json
import sys


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("output")
    parser.add_argument("--max-local", type=float)
    parser.add_argument("--max-mr", type=float)
    parser.add_argument("--max-gap", type=float)
    args = parser.parse_args()

    with open(args.output) as output:
        last = output.read().strip().splitlines()[-1]
    metrics = json.loads(last)["metrics"]
    local = metrics["local_peak_rss_mb"]["value"]
    mr = metrics["mr_peak_rss_mb"]["value"]
    failures = []
    for name, value, bound in (("local_peak_rss_mb", local, args.max_local),
                               ("mr_peak_rss_mb", mr, args.max_mr),
                               ("mr - local peak", mr - local, args.max_gap)):
        if bound is None:
            continue
        print(f"{name} = {value:.1f} MB (bound < {bound:g})")
        if not value < bound:
            failures.append(f"{name} {value:.1f} MB is not under {bound:g} MB")
    if failures:
        sys.exit("; ".join(failures))


if __name__ == "__main__":
    main()

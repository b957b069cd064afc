"""One fresh process of the benchmark: a set-up probe or one part.

    python3 perfbench/child.py --part setup --work DIR
    python3 perfbench/child.py --part threshold|finite-key|sessions \
        --workload paper|seeded --seed N --budget SECONDS --trace 0|1 --work DIR

Prints one JSON object as its last line.  ``setup`` times ``import
ediqkd`` plus one cold ``cached_fgc`` fill, so nothing heavy may be
imported above it.
"""

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def _import_program():
    """Import ediqkd from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    import ediqkd

    if Path(ediqkd.__file__).resolve().parent != SRC / "ediqkd":
        raise SystemExit(f"ediqkd imported from {ediqkd.__file__}, not from {SRC}")
    return ediqkd


def setup_probe(work):
    os.environ["EDIQKD_CACHE_DIR"] = work
    t0 = time.perf_counter()
    _import_program()
    from ediqkd.classical_bound import cached_fgc

    f_gc = cached_fgc()
    return {"setup_s": time.perf_counter() - t0, "f_gc": f_gc,
            "cache_files": sorted(os.listdir(work))}


def run_part(args):
    _import_program()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import parts
    import tracer

    run = parts.Run(tracer.NullRecorder())
    out = {}

    def traced_pass(make_pass):
        """The same fixed pass untraced, then traced; oracles run after both."""
        with parts.FreshCache(args.work):
            t0 = time.perf_counter()
            checks_plain = make_pass()
            untraced_s = time.perf_counter() - t0
        rec = tracer.Tracer()
        run.rec = rec
        with parts.FreshCache(args.work), rec.active():
            t0 = time.perf_counter()
            checks_traced = make_pass()
            traced_s = time.perf_counter() - t0
        run.rec = tracer.NullRecorder()
        checks_plain()
        checks_traced()
        out["counts"] = rec.counts
        out["pass_s"] = {"untraced": untraced_s, "traced": traced_s}
        trace_dir = ROOT / ".perfbench" / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        out["trace_file"] = str(trace_dir / f"{args.workload}-seed{args.seed}-{args.part}.jsonl")
        rec.write_jsonl(out["trace_file"])

    with parts.FreshCache(args.work):
        parts.PARTS[args.part](run, args.workload, args.seed, args.budget,
                               traced_pass if args.trace else None)
    out.update(run.result())
    import numpy
    import scipy

    out["versions"] = {"numpy": numpy.__version__, "scipy": scipy.__version__}
    return out


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--part", required=True,
                   choices=["setup", "threshold", "finite-key", "sessions"])
    p.add_argument("--workload", choices=["paper", "seeded"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--work", required=True)
    args = p.parse_args()
    out = setup_probe(args.work) if args.part == "setup" else run_part(args)
    out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(out))


if __name__ == "__main__":
    main()

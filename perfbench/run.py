"""Benchmark of the ediqkd workbench, run from the root of a checkout.

    python3 perfbench/run.py --workload paper|seeded --seed N --seconds S --trace 0|1

Every run goes through the library's three costly paths, each part in
its own fresh process so that memory and warm-up state do not leak
between them:

* threshold: ``photonic.required_efficiency`` (default tol 2e-4) and
  ``photonic.optimized_rate(eta=0.89, preprocessing=True)``, the only
  caller of ``eve_information``'s ``p_noise > 0`` path.  ``simulate``
  and ``classical_bound`` are idle here.
* finite-key: Table II (``keyrate.efficiency_factor``), Table III
  (``photonic.efactor_vs_efficiency``) and the secrecy curve
  (``adversary.secrecy_distance``).  No optimiser runs, and
  ``simulate`` and ``classical_bound`` are idle.
* sessions: one 1e7-round session at workers=1 and workers=2, plus 50
  sessions of 2e4 rounds per round over four channel families.  Only
  ``simulate`` (with the effective_stats and cached_fgc it calls) runs.

Before the parts, nine fresh processes each time ``import ediqkd`` plus
a cold ``cached_fgc`` fill into an empty ``EDIQKD_CACHE_DIR`` (setup_s).
All cache directories live under ``.perfbench/work`` in the checkout.

With ``--trace 0`` each part repeats its operations for its share of
``--seconds`` and the end-to-end metrics are medians over those
repetitions.  With ``--trace 1`` each part runs one fixed pass
untraced and the same pass traced; the per-layer metrics come from the
traced pass, and the difference of the two is the tracing overhead.
Spans go to ``.perfbench/traces``, full results to ``.perfbench/results``.

The last line of standard output is the JSON result.  A wrong output
counts as a failed operation; ``failed / attempted`` is printed as
fail_ratio.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402  (stdlib only)

WORKLOADS = ("paper", "seeded")
#: share of --seconds each part spends repeating its operations
PART_SHARES = {"threshold": 0.5, "finite-key": 0.1, "sessions": 0.4}
SETUP_PROBES = 9
RUN_LIMIT_S = 175  # the whole run, probes and parts included
F_GC_EXACT = (2 + 2**0.5) / 4
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

E2E_UNITS = {
    "setup_s": "s",
    "threshold_s": "s",
    "preproc_rate_s": "s",
    "table2_s": "s",
    "table3_s": "s",
    "secrecy_curve_s": "s",
    "session_rounds_per_s": "1/s",
    "session_w2_rounds_per_s": "1/s",
    "sweep_session_ms_p50": "ms",
    "sweep_session_ms_p95": "ms",
    "peak_rss_mb": "MB",
}


class RunError(Exception):
    pass


def environment(args):
    cpu = None
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():  # an exported tree has no .git; src_sha256 still names it
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "ediqkd").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "cpu": cpu,
        "python": platform.python_version(),
        "blas_threads": {k: os.environ.get(k) for k in BLAS_VARS},
        "git_commit": commit, "src_sha256": digest.hexdigest(),
    }


def child(argv, work, deadline):
    """Run perfbench/child.py in a fresh process; its last stdout line as a dict."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RunError(f"no time left for child {argv}")
    try:
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), *argv, "--work", work],
                              capture_output=True, text=True, timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise RunError(f"child {argv} exceeded {timeout:.0f}s") from None
    if proc.returncode != 0:
        raise RunError(f"child {argv} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def load_spans(path, part):
    spans = []
    with open(path) as f:
        for line in f:
            d = json.loads(line)
            sid = f"{part}:{d['id']}"
            parent = f"{part}:{d['parent']}" if d["parent"] is not None else None
            spans.append((sid, d["name"], d["start"], d["end"], parent, f"{part}:{d['op']}",
                          d["error"], d["key"], d["extra"]))
    return spans


def end_to_end(setup, results):
    s = {}
    for res in results.values():
        for metric, values in res["samples"].items():
            s.setdefault(metric, []).extend(values)
    sweep = sorted(s.get("sweep_session_ms", []))
    metrics = {"setup_s": statistics.median(setup)}
    for name in ("threshold_s", "preproc_rate_s", "table2_s", "table3_s", "secrecy_curve_s",
                 "session_rounds_per_s", "session_w2_rounds_per_s"):
        if s.get(name):
            metrics[name] = statistics.median(s[name])
    if sweep:
        metrics["sweep_session_ms_p50"] = statistics.median(sweep)
        # nearest-rank p95; the sweep's 200 or more samples leave at least 10 above it
        metrics["sweep_session_ms_p95"] = sweep[max(0, -(-95 * len(sweep) // 100) - 1)]
    metrics["peak_rss_mb"] = max(r["maxrss_kb"] for r in results.values()) / 1024
    missing = set(E2E_UNITS) - set(metrics)
    if missing:
        raise RunError(f"no sample for {sorted(missing)}")
    counts = {"threshold_searches": len(s.get("threshold_s", [])),
              "sweep_sessions": len(sweep)}
    return {k: (metrics[k], E2E_UNITS[k]) for k in E2E_UNITS}, counts


def per_layer(results):
    spans, counts = [], {}
    for part in results:
        spans += load_spans(results[part]["trace_file"], part)
        for name, value in results[part]["counts"].items():
            counts[name] = counts.get(name, 0) + value
    metrics = tracer.layer_stats(spans, counts)
    rss = results["sessions"]["samples"]["rss_bytes_per_round"][0]
    metrics["simulate.run_session.rss_bytes_per_round"] = (rss, "B")
    untraced = sum(r["pass_s"]["untraced"] for r in results.values())
    traced = sum(r["pass_s"]["traced"] for r in results.values())
    metrics["trace.overhead_s"] = (traced - untraced, "s")
    metrics["trace.overhead_ratio"] = ((traced - untraced) / untraced, "ratio")
    return metrics


def run(args, work):
    deadline = time.monotonic() + RUN_LIMIT_S
    attempted = failed = 0
    failures = []
    setup = []
    for k in range(SETUP_PROBES):
        probe_dir = tempfile.mkdtemp(prefix="setup-", dir=work)
        res = child(["--part", "setup"], probe_dir, deadline)
        setup.append(res["setup_s"])
        attempted += 1
        if not (abs(res["f_gc"] - F_GC_EXACT) <= 1e-6 and len(res["cache_files"]) == 1):
            failed += 1
            failures.append(f"setup probe {k}: F_GC={res['f_gc']}, cache {res['cache_files']}")

    results = {}
    for part, share in PART_SHARES.items():
        argv = ["--part", part, "--workload", args.workload, "--seed", str(args.seed),
                "--budget", str(share * args.seconds), "--trace", str(args.trace)]
        res = child(argv, work, deadline)
        results[part] = res
        attempted += res["attempted"]
        failed += res["failed"]
        failures += res["failures"]

    e2e, counts = end_to_end(setup, results)
    metrics = per_layer(results) if args.trace else e2e
    return metrics, attempted, failed, failures, counts, results["threshold"]["versions"]


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    if not (ROOT / "src" / "ediqkd" / "__init__.py").is_file():
        print(f"error: no ediqkd sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = environment(args)
    out_dir = ROOT / ".perfbench"
    (out_dir / "work").mkdir(parents=True, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=out_dir / "work")
    try:
        metrics, attempted, failed, failures, counts, versions = run(args, work)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env.update(versions)
    summary = {
        "env": env, "counts": counts, "failures": failures,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "attempted": attempted, "failed": failed,
    }
    (out_dir / "results").mkdir(exist_ok=True)
    result_path = out_dir / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(summary, indent=1))

    print("# env " + json.dumps(env))
    for what in failures:
        print("# FAIL " + what.replace("\n", " | "))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"fail_ratio = {failed / attempted:.6g} ratio ({failed}/{attempted} operations)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": summary["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

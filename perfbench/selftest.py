"""Self-test of the benchmark's tracing.

    python3 perfbench/selftest.py [--workload paper|seeded] [--seed N]

1. Every traced function is wrapped at every module binding, and the
   binding check itself catches a binding left out.
2. Uninstalling puts every original back.
3. Two traced runs of run.py at the same seed give identical per-layer
   counts (every metric whose unit is ``count`` or ``ratio``).

Exits 0 when all hold, 1 otherwise.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import tracer  # noqa: E402

#: functions imported by name into a second module, as of this benchmark
MULTI_BOUND = {
    ("ediqkd.keyrate", "finite_rate_ediqkd"): "ediqkd.photonic",
    ("ediqkd.photonic", "effective_stats"): "ediqkd.simulate",
    ("ediqkd.classical_bound", "cached_fgc"): "ediqkd.simulate",
}


def missed_bindings(origs):
    """(module, attribute) pairs still bound to an original function."""
    return [(mod.__name__, attr) for orig in origs.values() for mod, attr in tracer.bindings(orig)]


def check_bindings():
    import ediqkd  # noqa: F401  (the package __init__ adds its own bindings)
    import ediqkd.cli  # noqa: F401

    errors = []
    origs = tracer.originals()
    for (mod, name), second in MULTI_BOUND.items():
        if getattr(sys.modules[second], name) is not origs[(mod, name)]:
            errors.append(f"{second}.{name} is no longer a second binding of {mod}.{name}")

    t = tracer.Tracer()
    with t.active():
        errors += [f"missed binding {m}.{a}" for m, a in missed_bindings(origs)]
    restored = {key: getattr(sys.modules[key[0]], key[1]) for key in origs}
    errors += [f"{m}.{f} not restored" for (m, f), fn in restored.items() if fn is not origs[(m, f)]]

    # the check must see a binding that a partial install leaves behind
    key = ("ediqkd.photonic", "effective_stats")
    sim = sys.modules["ediqkd.simulate"]
    sim.effective_stats = lambda *a, **k: None
    try:
        if ("ediqkd.photonic", "effective_stats") not in missed_bindings({key: origs[key]}):
            errors.append("binding check did not see ediqkd.photonic.effective_stats")
    finally:
        sim.effective_stats = origs[key]
    return errors


def traced_counts(workload, seed):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, cwd=ROOT, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"traced run failed:\n{proc.stderr[-3000:]}")
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return {k: v["value"] for k, v in metrics.items() if v["unit"] in ("count", "ratio")
            and not k.startswith("trace.")}


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", default="paper", choices=["paper", "seeded"])
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args()

    errors = check_bindings()
    print(f"bindings: {'ok' if not errors else 'FAIL'}")
    first = traced_counts(args.workload, args.seed)
    second = traced_counts(args.workload, args.seed)
    diff = {k: (first[k], second.get(k)) for k in first if first[k] != second.get(k)}
    errors += [f"count {k} differs between traced runs: {a} vs {b}" for k, (a, b) in diff.items()]
    print(f"repeatable counts ({len(first)} metrics): {'ok' if not diff else 'FAIL'}")
    for e in errors:
        print("  " + e)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())

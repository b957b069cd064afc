"""The three benchmark parts: inputs, timed operations and output oracles.

Each part runs in its own fresh process (see child.py) and returns a
dict of timing samples, operation counts and failures.  One operation
is one top-level call into the library: a threshold search, a
preprocessing optimisation, a table row, a curve point or a session.
An operation fails when it raises or when its output misses its oracle;
oracles run outside the timed region and outside the traced region.

Workloads differ in how much their arguments repeat:

* ``paper``: the paper's inputs in every pass; the seed only drives the
  simulator's RNG.  Identical calls recur within and across passes, so
  a memo or cache in the library would hit.
* ``seeded``: every pass draws fresh inputs from the seed, so arguments
  rarely repeat and a memo would miss.
"""

from __future__ import annotations

import math
import os
import random
import resource
import shutil
import tempfile
import time
import traceback
from dataclasses import replace

import numpy as np

from ediqkd import adversary as adv
from ediqkd import keyrate as kr
from ediqkd import photonic as ph
from ediqkd import simulate as sim

# --- threshold -------------------------------------------------------------
PAPER_F_SOURCE = 0.9952
PAPER_ETA_MIN = 0.8907  # eta_min at F_source = 0.9952 under the primary convention
SEARCH_TOL = 2e-4  # required_efficiency's default tol
R_THRESHOLD = 1e-5  # required_efficiency's default r_threshold
PREPROC_ETA = 0.89

# --- finite-key ------------------------------------------------------------
#: Table II log10 rows (n'_EDIQKD, n'_DIQKD, E_f); same values and 0.3
#: tolerance as the acceptance suite's PAPER_TABLE2.
PAPER_TABLE2 = {
    0.055: (3.77, 6.23, 2.46),
    0.060: (4.18, 6.56, 2.38),
    0.065: (5.06, 7.10, 2.04),
    0.066: (5.31, 7.26, 1.95),
    0.067: (6.14, 7.45, 1.31),
}
TABLE2_TOL = 0.3
TABLE3_ETAS = (1.0, 0.95, 0.92, 0.90, 0.8973, 0.889, 0.888)
TABLE3_MU, TABLE3_F_SOURCE = 0.01, 0.998  # efactor_vs_efficiency defaults
R_TARGET = 1e-3  # efficiency_factor's default target rate
D_ANCHOR_Q, D_ANCHOR, D_ANCHOR_TOL = 0.069, 0.2828, 0.02
CURVE_POINTS = 50

# --- sessions --------------------------------------------------------------
LARGE_ROUNDS = 10**7
LARGE_CHANNEL = ("flip", 0.03)
SMALL_ROUNDS = 20_000
SWEEP_PER_ROUND = 50
FAMILIES = ("flip", "depolarizing", "uqcm", "photonic")
PAPER_SWEEP = {
    "flip": ("flip", 0.03),
    "depolarizing": ("depolarizing", 0.04),
    "uqcm": ("uqcm", 0.2),
    "photonic": ("photonic", ph.PhotonicParams(0.95, 1e-6, 0.01, PAPER_F_SOURCE)),
}
N_SIGMA = 5.0
DF_DP_MAX = 0.25  # |dF_expt / dP(b=+1 | cell)| is at most 1/4 in the protocol frame


class Run:
    """Samples, operation counts and failures of one part in one process."""

    def __init__(self, recorder):
        self.rec = recorder
        self.samples = {}
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def add(self, metric, value):
        self.samples.setdefault(metric, []).append(value)

    def fail(self, what):
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)

    def call(self, name, fn, *args, **kwargs):
        """Time one top-level operation; (result, seconds), or (None, None) if it raised."""
        self.attempted += 1
        try:
            with self.rec.op(name):
                t0 = time.perf_counter()
                res = fn(*args, **kwargs)
                return res, time.perf_counter() - t0
        except Exception:
            self.fail(f"{name} raised: {traceback.format_exc(limit=3)}")
            return None, None

    def check(self, ok, what):
        """Count a failed oracle against an operation that returned."""
        if not ok:
            self.fail(what)

    def result(self):
        return {
            "samples": self.samples,
            "attempted": self.attempted,
            "failed": self.failed,
            "failures": self.failures,
        }


def _rng(workload, part, seed, pass_index):
    return random.Random(f"{workload}/{part}/{seed}/{pass_index}")


class FreshCache:
    """Points EDIQKD_CACHE_DIR at an empty directory, so the F_GC cache starts cold."""

    def __init__(self, parent):
        self.parent = parent

    def __enter__(self):
        self.path = tempfile.mkdtemp(prefix="fgc-", dir=self.parent)
        self.previous = os.environ.get("EDIQKD_CACHE_DIR")
        os.environ["EDIQKD_CACHE_DIR"] = self.path
        return self.path

    def __exit__(self, *exc):
        if self.previous is None:
            del os.environ["EDIQKD_CACHE_DIR"]
        else:
            os.environ["EDIQKD_CACHE_DIR"] = self.previous
        shutil.rmtree(self.path, ignore_errors=True)


# ---------------------------------------------------------------------------
# threshold: eta_min search plus the preprocessing optimisation
# ---------------------------------------------------------------------------


def _search_key_params():
    gamma = ph.GAMMA_EDIQKD_NATURAL
    return kr.FiniteKeyParams(n=1.44e9 * (1 - gamma), gamma=gamma)


def threshold_inputs(workload, seed, pass_index):
    """(search F_source, preprocessing F_source) of one pass."""
    if workload == "paper":
        return PAPER_F_SOURCE, PAPER_F_SOURCE
    f_search = _rng(workload, "search", seed, 0).uniform(0.995, 1.0)
    f_pre = _rng(workload, "preproc", seed, pass_index).uniform(0.995, 1.0)
    return f_search, f_pre


def threshold_warmup():
    ph.rate_with_imperfections(ph.PhotonicParams(0.95, f_source=PAPER_F_SOURCE),
                               _search_key_params())


def threshold_search(run, workload, f_source):
    out, dt = run.call("threshold.search", ph.required_efficiency, f_source)
    if out is None:
        return None
    run.add("threshold_s", dt)
    return out


def check_search(run, workload, f_source, out):
    """eta_min is bracketed: the argmax reaches the rate target, eta_min - tol misses it."""
    eta, arg = out
    if eta is None:
        run.check(False, f"threshold: no eta_min for F_source={f_source}")
        return
    if workload == "paper":
        run.check(abs(eta - PAPER_ETA_MIN) <= SEARCH_TOL,
                  f"threshold: eta_min={eta} not {PAPER_ETA_MIN} +- {SEARCH_TOL}")
    kp = _search_key_params()
    r_at = ph.rate_with_imperfections(arg, kp).r_raw
    r_below, _ = ph.optimized_rate(eta - SEARCH_TOL, f_source, kp)
    run.check(arg.eta == eta and r_at >= R_THRESHOLD,
              f"threshold: rate {r_at} at eta_min={eta} below {R_THRESHOLD}")
    run.check(r_below < R_THRESHOLD,
              f"threshold: rate {r_below} at eta_min - tol={eta - SEARCH_TOL} reaches target")


def preproc_rate(run, f_source):
    out, dt = run.call("threshold.preproc", ph.optimized_rate, PREPROC_ETA, f_source,
                       _search_key_params(), preprocessing=True)
    if out is not None:
        run.add("preproc_rate_s", dt)
    return out


def check_preproc(run, f_source, out):
    r, arg = out
    run.check(r >= R_THRESHOLD and arg.eta == PREPROC_ETA,
              f"preproc: rate {r} at eta={PREPROC_ETA}, F_source={f_source} below target")


def run_threshold(run, workload, seed, budget, traced_pass):
    """Untraced: one search, then preprocessing optimisations until the budget is spent
    (at least 3).  Traced: one search and one optimisation, untraced then traced."""
    threshold_warmup()
    f_search, _ = threshold_inputs(workload, seed, 0)
    if traced_pass is not None:
        return traced_pass(lambda: _threshold_pass(run, workload, seed, f_search))
    t_end = time.perf_counter() + budget
    out = threshold_search(run, workload, f_search)
    if out is not None:
        check_search(run, workload, f_search, out)
    results = []
    k = 0
    while k < 3 or time.perf_counter() < t_end:
        _, f_pre = threshold_inputs(workload, seed, k)
        res = preproc_rate(run, f_pre)
        if res is not None:
            check_preproc(run, f_pre, res)
            results.append(res[0])
        k += 1
    if workload == "paper":
        run.check(len(set(results)) <= 1, f"preproc: repeated calls disagree: {results}")


def _threshold_pass(run, workload, seed, f_search):
    """One search and one preprocessing optimisation; returns the checks to run later."""
    out = threshold_search(run, workload, f_search)
    _, f_pre = threshold_inputs(workload, seed, 0)
    res = preproc_rate(run, f_pre)

    def checks():
        if out is not None:
            check_search(run, workload, f_search, out)
        if res is not None:
            check_preproc(run, f_pre, res)

    return checks


# ---------------------------------------------------------------------------
# finite-key: Table II, Table III and the secrecy curve
# ---------------------------------------------------------------------------


def finite_key_inputs(workload, seed, pass_index):
    """(Table II QBERs, Table III etas, secrecy-curve QBERs) of one pass."""
    if workload == "paper":
        curve = list(np.linspace(0, 1 / 6 - 1e-9, CURVE_POINTS)) + [D_ANCHOR_Q]
        return tuple(PAPER_TABLE2), TABLE3_ETAS, curve
    rng = _rng(workload, "finite-key", seed, pass_index)
    qs = [rng.uniform(0.01, 0.067) for _ in PAPER_TABLE2]
    etas = [rng.uniform(0.888, 1.0) for _ in TABLE3_ETAS]
    curve = [0.0] + [rng.uniform(0, 1 / 6 - 1e-9) for _ in range(CURVE_POINTS - 1)] + [D_ANCHOR_Q]
    return qs, etas, curve


def _finite_key_pass(run, workload, seed, pass_index):
    """Time one pass; return the oracle checks to run after it."""
    qs, etas, curve = finite_key_inputs(workload, seed, pass_index)
    t2 = [(q, *run.call("finite-key.table2", kr.efficiency_factor, q)) for q in qs]
    t3 = [(eta, *run.call("finite-key.table3", ph.efactor_vs_efficiency, eta)) for eta in etas]
    dq = [(q, *run.call("finite-key.secrecy", adv.secrecy_distance, q)) for q in curve]
    for metric, rows in (("table2_s", t2), ("table3_s", t3), ("secrecy_curve_s", dq)):
        if all(dt is not None for _, _, dt in rows):
            run.add(metric, sum(dt for _, _, dt in rows))
    return lambda: _check_finite_key(run, t2, t3, dq)


def _check_table2_row(run, q, ef, ne, nd):
    if ef is None:
        run.check(False, f"table2: Q={q} unattainable")
        return
    ok = ef > 1
    # n' is the smallest block reaching the target: the rate crosses it between n'(1 - 1e-6) and n'
    for rate_fn, mr in ((kr.finite_rate_ediqkd, ne), (kr.finite_rate_diqkd, nd)):
        ok &= rate_fn(q, kr.FiniteKeyParams(n=mr.n)).r_raw >= R_TARGET
        ok &= rate_fn(q, kr.FiniteKeyParams(n=mr.n * (1 - 1e-6))).r_raw < R_TARGET
    if q in PAPER_TABLE2:
        got = (math.log10(ne.n), math.log10(nd.n), math.log10(ef))
        ok &= max(abs(g - t) for g, t in zip(got, PAPER_TABLE2[q])) <= TABLE2_TOL
    run.check(ok, f"table2: Q={q} row ({ef}, {ne.n}, {nd.n}) misses its oracle")


def _check_finite_key(run, t2, t3, dq):
    for q, out, _ in t2:
        if out is not None:
            _check_table2_row(run, q, *out)

    # Table III: None when the certification aborts (F_expt <= F_GC) or a
    # protocol cannot reach the target; E_f increasing in eta otherwise
    rows = []
    for eta, out, _ in t3:
        if out is None:
            continue
        ef, ne, nd = out
        photo = ph.effective_stats(ph.PhotonicParams(eta, 1e-6, TABLE3_MU, TABLE3_F_SOURCE, 45.0))
        certified = photo.f_expt > ph.F_GC_THRESHOLD
        attainable = certified and ne.n is not None and nd.n is not None
        run.check((ef is not None) == attainable,
                  f"table3: eta={eta} gives E_f={ef} with F_expt={photo.f_expt}")
        if ef is not None:
            rows.append((eta, ef))
    rows.sort()
    for (e1, f1), (e2, f2) in zip(rows, rows[1:]):
        run.check(f2 >= f1, f"table3: E_f not increasing between eta={e1} and {e2}")

    # secrecy curve: D(0) = 0, D(0.069) = 0.2828 +- 0.02, monotone in Q
    pts = sorted((q, d) for q, d, _ in dq if d is not None)
    for q, d in pts:
        if q == 0.0:
            run.check(d <= 1e-12, f"secrecy: D(0) = {d}")
        if q == D_ANCHOR_Q:
            run.check(abs(d - D_ANCHOR) <= D_ANCHOR_TOL, f"secrecy: D({q}) = {d}")
    for (q1, d1), (q2, d2) in zip(pts, pts[1:]):
        run.check(d2 >= d1 - 1e-12, f"secrecy: D({q2}) = {d2} < D({q1}) = {d1}")


def run_finite_key(run, workload, seed, budget, traced_pass):
    """Untraced: passes until the budget is spent (at least 3).  Traced: one pass each way."""
    kr.efficiency_factor(0.06)  # warm-up: one row of each kind
    ph.efactor_vs_efficiency(0.95)
    adv.secrecy_distance(0.06)
    if traced_pass is not None:
        return traced_pass(lambda: _finite_key_pass(run, workload, seed, 0))
    t_end = time.perf_counter() + budget
    k = 0
    while k < 3 or time.perf_counter() < t_end:
        _finite_key_pass(run, workload, seed, k)()
        k += 1


# ---------------------------------------------------------------------------
# sessions: one large session at 1 and 2 workers, plus a sweep of small ones
# ---------------------------------------------------------------------------


def _channel(family, rng):
    if family == "flip":
        return ("flip", rng.uniform(0.005, 0.1))
    if family == "depolarizing":
        return ("depolarizing", rng.uniform(0.01, 0.2))
    if family == "uqcm":
        return ("uqcm", rng.uniform(0.05, 0.6))
    return ("photonic", ph.PhotonicParams(rng.uniform(0.9, 1.0), 1e-6, 0.01,
                                          rng.uniform(0.995, 1.0)))


def sessions_inputs(workload, seed, round_index):
    """(large-session config at workers=1, sweep configs) of one round."""
    rng = _rng(workload, "sessions", seed, round_index)
    if workload == "paper":
        large = sim.SessionConfig(n_rounds=LARGE_ROUNDS, channel=LARGE_CHANNEL, seed=seed)
    else:
        large = sim.SessionConfig(n_rounds=LARGE_ROUNDS, channel=("flip", rng.uniform(0.01, 0.06)),
                                  seed=rng.randrange(2**31))
    sweep = []
    for k in range(SWEEP_PER_ROUND):
        family = FAMILIES[(k + round_index) % len(FAMILIES)]
        channel = PAPER_SWEEP[family] if workload == "paper" else _channel(family, rng)
        sweep.append(sim.SessionConfig(n_rounds=SMALL_ROUNDS, channel=channel,
                                       seed=rng.randrange(2**31)))
    return large, sweep


def _analytic(channel):
    """(QBER, F_expt) the session should estimate for this channel."""
    name, arg = channel
    if name == "flip":
        return arg, 1 - 1.5 * arg
    if name == "depolarizing":
        return arg / 2, 1 - 0.75 * arg
    if name == "uqcm":
        return arg / 6, 1 - arg / 4
    photo = ph.effective_stats(arg)
    rw = {v: photo.row_weights[(3, v)] for v in (+1, -1)}
    q = sum(rw[v] * photo.stats[(3, v, 3, -v)] for v in rw) / sum(rw.values())
    return q, photo.f_expt


def _check_session(run, config, res):
    q_true, f_true = _analytic(config.channel)
    n_key = res.alice_key.size
    se_q = math.sqrt(max(q_true * (1 - q_true), 1 / n_key) / n_key)
    var_f = 0.0
    for (i, a, j, b), n_plus in res.counts.items():
        if b == +1:
            tot = n_plus + res.counts[(i, a, j, -1)]
            p = n_plus / tot
            var_f += DF_DP_MAX**2 * max(p * (1 - p), 1 / tot) / tot
    ok = abs(res.q_emp - q_true) <= N_SIGMA * se_q
    ok &= abs(res.f_expt - f_true) <= N_SIGMA * math.sqrt(var_f)
    ok &= res.aborted == (not res.f_expt > res.f_gc)
    run.check(ok, f"session {config.channel} seed={config.seed}: Q_emp={res.q_emp} "
                  f"(analytic {q_true}), F_expt={res.f_expt} (analytic {f_true})")


def _large_pair(run, large, order):
    """Run `large` at workers=1 and 2 in `order`; returns the checks to run later."""
    res = {}
    for w in order:
        out, dt = run.call("sessions.large", sim.run_session, replace(large, workers=w))
        if out is not None:
            res[w] = out
            run.add("session_rounds_per_s" if w == 1 else "session_w2_rounds_per_s",
                    large.n_rounds / dt)

    def checks():
        for r in res.values():
            _check_session(run, large, r)
        if len(res) == 2:
            a, b = res[1], res[2]
            run.check(np.array_equal(a.alice_key, b.alice_key)
                      and np.array_equal(a.bob_key, b.bob_key) and a.f_expt == b.f_expt,
                      f"session {large.channel} seed={large.seed}: workers=1 and 2 differ")

    return checks


def _sessions_round(run, workload, seed, round_index):
    large, sweep = sessions_inputs(workload, seed, round_index)
    order = (1, 2) if round_index % 2 == 0 else (2, 1)
    check_large = _large_pair(run, large, order)
    small = []
    for cfg in sweep:
        out, dt = run.call("sessions.sweep", sim.run_session, cfg)
        if out is not None:
            run.add("sweep_session_ms", 1e3 * dt)
            small.append((cfg, out))

    def checks():
        check_large()
        for cfg, out in small:
            _check_session(run, cfg, out)

    return checks


def run_sessions(run, workload, seed, budget, traced_pass):
    """Untraced: rounds until the budget is spent (at least 4, so at least 200
    sweep sessions).  Traced: one round each way.

    The warm-up runs the large session at workers=1 then workers=2, so
    neither timed order pays the first session's page faults; the peak-RSS
    growth of that first session gives the memory cost per round.
    """
    large, _ = sessions_inputs(workload, seed, 0)
    rss0 = _maxrss_bytes()
    for w in (1, 2):
        sim.run_session(replace(large, workers=w))
    run.add("rss_bytes_per_round", (_maxrss_bytes() - rss0) / large.n_rounds)
    if traced_pass is not None:
        return traced_pass(lambda: _sessions_round(run, workload, seed, 0))
    t_end = time.perf_counter() + budget
    k = 0
    while k < 4 or time.perf_counter() < t_end:
        _sessions_round(run, workload, seed, k)()
        k += 1


def _maxrss_bytes():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


PARTS = {
    "threshold": run_threshold,
    "finite-key": run_finite_key,
    "sessions": run_sessions,
}

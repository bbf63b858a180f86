#!/usr/bin/env python3
"""Time-to-verdict benchmark for shapecheck.

    python3 bench/run.py                      # every workload, timed then traced
    python3 bench/run.py --workload corpus --seed 1 --seconds 25 --trace 0

One process per workload, one client, checks back to back (a closed
loop). `--trace 0` times checks through `shapecheck.check_source` with
nothing rebound and prints the end-to-end metrics, scaled to a reference
host speed and also as measured; `--trace 1` makes a
separate traced run and prints the per-layer metrics. Every check is
compared with its known answer; any mismatch, exception or drifting
exact count makes the command exit 1, naming the workload, the seed and
the program. The last line of standard output is one JSON object. See
bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SRC = ROOT / "src"

# The traced run profiles every call, so it covers a quarter of the
# timed run's pass time.
TRACE_SHARE = 0.25
SETUP_REPEATS = 9
# The host's speed moves by up to 2x, for fractions of a second to
# minutes at a time (see README.md). After every untraced check the run
# times a fixed probe, and each time it reports is scaled by PROBE_REF_S
# over the mean of the probes just before and just after it: the time
# the step would have taken with the host at the reference speed.
# PROBE_REF_S is about the probe's time on a quiet 2-vCPU VM. A fresh
# interpreter's start slows less than Python code does, so each set-up is
# scaled instead by BARE_REF_S over the mean of a bare interpreter's start
# (`python -c pass`) just before and just after it.
PROBE_ITEMS = 500
PROBE_REF_S = 0.0003
BARE_REF_S = 0.04
HASH_SEEDS = ("1", "2")


def _log(msg):
    print(msg, file=sys.stderr, flush=True)


def _import_checker():
    """Import the checker from the checkout's src/, or explain why not."""
    if not (SRC / "shapecheck" / "__init__.py").is_file():
        raise SystemExit(f"bench: no checker sources under {SRC}")
    sys.path[:0] = [str(SRC), str(BENCH)]
    import shapecheck  # noqa: F401


# ---------------------------------------------------------------------------
# Measuring.
# ---------------------------------------------------------------------------


def interpreter_seconds(code: str) -> float:
    """Wall time for a fresh interpreter to run `code`."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    # No timeout: with one, the wait polls with sleeps of up to 50 ms.
    subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True)
    return time.perf_counter() - t0


def setup_seconds() -> tuple:
    """Wall time for a fresh interpreter to import shapecheck, and the
    same at the reference speed."""
    before = interpreter_seconds("pass")
    setup = interpreter_seconds("import shapecheck")
    after = interpreter_seconds("pass")
    return setup, setup * BARE_REF_S * 2 / (before + after)


class _Link:
    __slots__ = ("key", "value", "next")

    def __init__(self, key, value, next):
        self.key, self.value, self.next = key, value, next


def probe_seconds() -> float:
    """Time a fixed piece of work with the cyclic collector off, so that
    it follows the host's speed and not the checker's heap. Half of it is
    integer arithmetic, which a busy host slows less than it slows a
    check, and half tuple-keyed dict lookups and small linked objects,
    which it slows more; together they slow as a check does (README.md)."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        total = 0
        for i in range(6 * PROBE_ITEMS):
            total += i * i
        table, head = {}, None
        for i in range(PROBE_ITEMS):
            key = (i & 127, "v")
            table[key] = table.get(key, 0) + 1
            head = _Link(key, i, head)
            if isinstance(head.key, tuple):
                head.value += 1
        return time.perf_counter() - t0
    finally:
        gc.enable()


def check_once(case):
    """One check as a user sees it: the verdict and, when Typed, the
    rendered bindings."""
    from shapecheck import CheckOptions, TYPED, check_source

    opts = CheckOptions() if case.fuel is None else CheckOptions(fuel=case.fuel)
    report = check_source(case.source, opts)
    if report.verdict == TYPED:
        report.render_bindings()
    return report


class Run:
    """Samples and failures of one workload run."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.samples = []  # (case name, seconds, midpoint)
        self.probes = []  # (start, seconds) of the host probes
        self.attempted = 0
        self.failures = []

    def at_reference_speed(self, seconds: float, at: float) -> float:
        """`seconds` spent around `at`, scaled to the reference speed by
        the probes on either side of `at`."""
        i = bisect.bisect_left(self.probes, (at,))
        return seconds * PROBE_REF_S / statistics.fmean(s for _, s in self.probes[max(i - 1, 0):i + 1])

    def adjusted(self) -> list:
        """(case name, seconds at the reference speed) per untraced sample."""
        return [(name, self.at_reference_speed(s, at)) for name, s, at in self.samples]

    def fail(self, case_name: str, why: str):
        self.failures.append(f"workload={self.workload} seed={self.seed} program={case_name}: {why}")

    def timed_check(self, case, tracer=None):
        """Check one case, time it, then compare it with its answer."""
        import workloads

        self.attempted += 1
        try:
            t0 = time.perf_counter()
            if tracer is None:
                report = check_once(case)
            else:
                with tracer.span("check"), tracer.profiled():
                    report = check_once(case)
            elapsed = time.perf_counter() - t0
            self.samples.append((case.name, elapsed, t0 + elapsed / 2))
            if tracer is None:
                self.probes.append((time.perf_counter(), probe_seconds()))
                why = workloads.mismatch(case, report)
            else:
                with tracer.span("verify"):
                    why = workloads.mismatch(case, report)
        except Exception as exc:  # any exception is a failed check, reported below
            why = f"{type(exc).__name__}: {exc}"
        if why is not None:
            self.fail(case.name, why)

    def passes(self, cases, count: int, tracer=None):
        for n in range(count):
            gc.collect()
            for case in cases:
                if tracer is not None:
                    tracer.program = (n, case.name)
                self.timed_check(case, tracer)

    def passes_for(self, cases, seconds: float, before_pass=None) -> int:
        """Whole passes over the cases while the next one is expected to
        end within `seconds` of pass time; at least one. Calls
        `before_pass(pass seconds so far)` ahead of each. Returns the
        number of passes."""
        busy, n = 0.0, 0
        while n == 0 or busy * (n + 1) / n <= seconds:
            if before_pass is not None:
                before_pass(busy)
            t0 = time.perf_counter()
            self.passes(cases, 1)
            busy += time.perf_counter() - t0
            n += 1
        return n


def gmean(values) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def tail(values):
    """The highest percentile with at least 10 samples beyond it: the
    11th largest value, and the share of samples at or below it."""
    ordered = sorted(values)
    k = max(len(ordered) - 11, 0)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def timed_run(run, seconds, cases) -> tuple:
    """Passes over the cases for `seconds` of pass time, with the
    fresh-interpreter set-ups spread between them, so that both sample
    the same stretch of the host's time."""
    import tracing

    tracing.assert_untraced()
    setup_seconds()  # writes the bytecode cache; not a user's set-up
    check_once(min(cases, key=lambda c: c.stmts))  # lazy set-up, untimed
    setup = []  # (seconds, seconds at the reference speed)

    def setups_due(busy):
        while len(setup) < SETUP_REPEATS * busy / seconds:
            setup.append(setup_seconds())

    run.passes_for(cases, seconds, setups_due)
    setups_due(seconds)

    def latency(samples) -> dict:
        times = {}
        for name, s in samples:
            times.setdefault(name, []).append(s * 1e3)
        p50 = {name: statistics.median(ms) for name, ms in times.items()}
        p90 = [statistics.quantiles(ms, n=10, method="inclusive")[-1] if len(ms) > 1 else ms[0] for ms in times.values()]
        stmts = sum(c.stmts for c in cases if c.name in p50)
        counts = sorted(map(len, times.values()))
        per = f"{len(times)} programs, {counts[0]}-{counts[-1]} checks each"
        return {
            "check_ms.p50_gm": (gmean(p50.values()), "ms", f"geometric mean of per-program medians; {per}"),
            "check_ms.p90_gm": (gmean(p90), "ms", f"geometric mean of per-program p90s; {per}"),
            "stmts_per_s": (1e3 * stmts / sum(p50.values()), "stmt/s",
                            "top-level statements of one pass / its summed per-program median times"),
        }

    adjusted = run.adjusted()
    metrics = {
        **latency(adjusted),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", "max RSS of this process"),
        "setup_s": (statistics.median(ref for _, ref in setup), "s",
                    f"median of {len(setup)} fresh imports spread over the run"),
    }
    # Printed but not bounded: the same figures as measured, before the
    # scaling to the reference speed; the pooled median and tail of the
    # scaled times, which spread more than the per-program figures (see
    # README.md); and failed_share, which is 0 at a correct commit, so it
    # travels as the result's `failed`/`attempted`.
    pooled = sorted(s * 1e3 for _, s in adjusted)
    tail_ms, tail_p = tail(pooled)
    n = len(pooled)
    notes = {
        **{f"{name}.measured": (value, unit, "not scaled")
           for name, (value, unit, _) in latency((name, s) for name, s, _ in run.samples).items()},
        "setup_s.measured": (statistics.median(s for s, _ in setup), "s", "not scaled"),
        "host.probe_ms": (1e3 * statistics.median(s for _, s in run.probes), "ms",
                          f"median of {len(run.probes)} probes; reference {PROBE_REF_S * 1e3:g} ms"),
        "check_ms.p50": (statistics.median(pooled), "ms", f"pooled over all checks, scaled, n={n}"),
        "check_ms.tail": (tail_ms, "ms", f"pooled, scaled, p{tail_p:.2f}, n={n}"),
        "failed_share": (len(run.failures) / run.attempted, "share", f"{len(run.failures)} of {run.attempted}"),
    }
    return metrics, notes


# ---------------------------------------------------------------------------
# The traced run.
# ---------------------------------------------------------------------------


def traced_passes(run, cases, passes=1):
    """Check every case `passes` times with spans and cProfile on."""
    import tracing

    tracer = tracing.Tracer()
    with tracer.installed():
        run.passes(cases, passes, tracer)
    tracing.assert_untraced()
    return tracer


def pass_totals(tracer) -> tuple:
    """Exact counts of pass 0, summed over its programs, and the first
    program whose counts differ in a later pass (or None)."""
    import tracing

    by_program = tracer.exact_counts()
    first = {name: c for (n, name), c in by_program.items() if n == 0}
    drift = None
    for (n, name), c in sorted(by_program.items(), key=lambda kv: kv[0][0]):
        if c != first.get(name):
            drift = f"{name} in pass {n}: {c} != {first.get(name)}"
            break
    totals = {k: sum(c[k] for c in first.values()) for k in tracing.COUNT_KEYS}
    return totals, first, drift


def counts_mode(run, cases):
    """One traced pass; print its exact counts as JSON (for the hash-seed gate)."""
    import tracing

    tracer = traced_passes(run, cases)
    totals, per_program, _ = pass_totals(tracer)
    totals["solver.constraint_weight.calls"] = tracing.profile_summary(tracer.profile)["solver.constraint_weight.calls"]
    print(json.dumps({"totals": totals, "programs": per_program, "failures": run.failures}, sort_keys=True))
    return 0


def hash_seed_counts(workload, seed) -> list:
    """Exact counts from fresh interpreters under different hash seeds."""
    procs = []
    for hs in HASH_SEEDS:
        env = dict(os.environ, PYTHONHASHSEED=hs)
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed), "--counts"]
        procs.append((hs, subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True)))
    out = []
    try:
        for hs, proc in procs:
            stdout, _ = proc.communicate(timeout=150)
            if proc.returncode != 0:
                raise RuntimeError(f"counts run under PYTHONHASHSEED={hs} exited {proc.returncode}")
            out.append((hs, json.loads(stdout.strip().splitlines()[-1])))
    finally:
        for _, proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    return out


def traced_run(run, seconds, cases) -> tuple:
    """The same passes untraced, then traced; per-layer metrics."""
    import tracing

    tracing.assert_untraced()
    check_once(min(cases, key=lambda c: c.stmts))
    passes = run.passes_for(cases, TRACE_SHARE * seconds)
    plain, untraced_s = run.adjusted(), sum(s for _, s, _ in run.samples)
    run.samples = []
    tracer = traced_passes(run, cases, passes)
    n_checks = len(run.samples)

    totals, per_program, drift = pass_totals(tracer)
    if drift:
        run.fail("(exact counts)", f"count drifted between passes: {drift}")
    prof = tracing.profile_summary(tracer.profile)
    weight_calls = prof["solver.constraint_weight.calls"]
    if weight_calls % passes:
        run.fail("(exact counts)", f"constraint_weight calls {weight_calls} not a multiple of {passes} passes")
    totals["solver.constraint_weight.calls"] = weight_calls // passes
    for hs, other in hash_seed_counts(run.workload, run.seed):
        for name, counts in other["programs"].items():
            if counts != per_program.get(name):
                run.fail(name, f"counts under PYTHONHASHSEED={hs} {counts} != {per_program.get(name)}")
        if other["totals"] != totals:
            run.fail("(exact counts)", f"totals under PYTHONHASHSEED={hs} {other['totals']} != {totals}")
        run.failures += [f"{f} (PYTHONHASHSEED={hs})" for f in other["failures"]]

    spans = tracer.self_ms()
    traced_s = sum(s for _, s, _ in run.samples)

    def per_check(span):
        return spans.get(span, 0.0) / n_checks

    def per_pass(key):
        return prof[key] // passes if key.endswith(".calls") else prof[key] / passes

    # us/step: untraced time of each program, at the reference speed, over
    # its steps; programs ordered by steps (on fuel_burn: by budget).
    times = {}
    for name, s in plain:
        times.setdefault(name, []).append(s)
    by_steps = sorted((n for n in per_program if n in times), key=lambda n: per_program[n]["engine.steps"])
    us_per_step = {
        name: statistics.median(times[name]) * 1e6 / max(per_program[name]["engine.steps"], 1)
        for name in by_steps
    }
    picks = {"smallest": by_steps[0], "middle": by_steps[len(by_steps) // 2], "largest": by_steps[-1]}

    m = {
        "syntax.parse_program_ms": (per_check("syntax.parse_program"), "ms", "mean per check"),
        "syntax.self_share": (prof["syntax.self_share"], "share", "cProfile self time"),
        "gen.infer_program_ms": (per_check("gen.infer_program"), "ms", "mean per check"),
        "gen.constraints": (totals["gen.constraints"], "count", "per pass, exact"),
        "solver.solve_gen_ms": (per_check("solver.solve_gen"), "ms", "mean per check"),
        "solver.self_share": (prof["solver.self_share"], "share", "cProfile self time"),
        "solver.dispatched": (totals["solver.dispatched"], "count", "per pass, exact"),
        "solver.weights_per_dispatch": (
            totals["solver.constraint_weight.calls"] / max(totals["solver.dispatched"], 1), "ratio",
            f"{totals['solver.constraint_weight.calls']} weights / {totals['solver.dispatched']} dispatches, exact"),
        "engine.self_share": (prof["engine.self_share"], "share", "cProfile self time"),
        "engine.steps": (totals["engine.steps"], "count", "per pass, exact"),
        "engine.unifications": (totals["engine.unifications"], "count", "per pass, exact"),
        "engine.gets_per_walk": (
            prof["engine.pmap_get.calls"] / max(prof["engine.shallow_walk.calls"] + prof["engine.occurs.calls"], 1),
            "ratio", "PMap.get calls / (shallow_walk + occurs) calls, exact"),
        "engine.pmap_sets": (per_pass("engine.pmap_set.calls"), "count", "PMap.set calls per pass, exact"),
        "engine.pmap_get_self_ms": (per_pass("engine.pmap_get.self_ms"), "ms", "per pass"),
        "engine.pmap_set_self_ms": (
            per_pass("engine.pmap_set.self_ms") + per_pass("engine.pmap_assoc.self_ms"), "ms", "set + _assoc, per pass"),
        "engine.unify_terms_calls": (per_pass("engine.unify_terms.calls"), "count", "per pass, exact"),
        "engine.unify_terms_self_ms": (per_pass("engine.unify_terms.self_ms"), "ms", "per pass"),
        "engine.streams_self_ms": (
            sum(per_pass(f"engine.{f}.self_ms") for f in ("mplus", "mbind", "force")), "ms",
            "mplus + mbind + _force and their thunks, per pass"),
        **{f"engine.us_per_step.{k}": (us_per_step[name], "us/step", f"{name}, untraced, at the reference speed")
           for k, name in picks.items()},
        "engine.us_per_step_drift": (
            us_per_step[picks["largest"]] / us_per_step[picks["smallest"]], "ratio",
            f"{picks['largest']} / {picks['smallest']}"),
        "types.self_share": (prof["types.self_share"], "share", "cProfile self time"),
        "types.apply_type_subst_calls": (per_pass("types.apply_type_subst.calls"), "count", "per pass, exact"),
        "types.apply_type_subst_self_ms": (per_pass("types.apply_type_subst.self_ms"), "ms", "per pass"),
        "types.eq_t_calls": (per_pass("types.eq_t.calls"), "count", "per pass, exact"),
        "types.eq_t_self_ms": (per_pass("types.eq_t.self_ms"), "ms", "eq_t and its goals, per pass"),
        "types.compare_ms": (per_check("types.compare"), "ms", "parse_type + types_equal, mean per check"),
        "checker.report_ms": (per_check("checker.report"), "ms", "answer -> Ty and render, mean per check"),
        "checker.self_share": (prof["checker.self_share"], "share", "cProfile self time"),
        "trace.overhead_share": ((traced_s - untraced_s) / untraced_s, "share", f"traced {traced_s:.3f} s vs untraced {untraced_s:.3f} s"),
    }
    return m, {"trace.passes": (passes, "count", f"{n_checks} traced checks")}


# ---------------------------------------------------------------------------
# Entry points.
# ---------------------------------------------------------------------------


def report(workload, metrics, notes, run) -> dict:
    for name, (value, unit, note) in {**metrics, **notes}.items():
        print(f"{workload:14s} {name:32s} {value:14.6g} {unit:8s} {note}")
    for f in run.failures:
        _log(f"FAILED {f}")
    return {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }


def run_all(args) -> int:
    """Every workload in its own process: timed, then traced."""
    import workloads

    status = 0
    for w in workloads.WORKLOADS:
        for t in (0, 1):
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", w, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(t)]
            code = subprocess.run(cmd, cwd=ROOT).returncode
            if code:
                _log(f"bench: workload {w} --trace {t} exited {code}")
                status = 1
    return status


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", help="one workload; default: all, each in its own process")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--counts", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    _import_checker()
    import workloads

    if args.workload is None:
        return run_all(args)
    try:
        cases = workloads.build(args.workload, args.seed, ROOT)
    except workloads.SetupError as exc:
        raise SystemExit(f"bench: {exc}")
    run = Run(args.workload, args.seed)
    if args.counts:
        return counts_mode(run, cases)
    try:
        measure = traced_run if args.trace else timed_run
        metrics, notes = measure(run, args.seconds, cases)
    except Exception:
        if not run.failures:
            raise
        # The metrics need the checks that failed; name those instead.
        for f in run.failures:
            _log(f"FAILED {f}")
        return 1
    result = report(args.workload, metrics, notes, run)
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

"""keymark benchmark: seeded exact-pipeline workloads, end to end and per layer.

Usage (from the repository root):

    python3 benchmarks/run.py --workload zipf-200 --seed 1 --seconds 30 --trace 0

`--trace 0` times the untraced program and prints the end-to-end metrics;
`--trace 1` runs a fixed number of rounds untraced and then traced, and
prints the per-layer metrics and the tracing overhead.  `--smoke` runs the
same code path at toy sizes.  The last stdout line is the result object
{"correct", "attempted", "failed", "metrics"}; the line before it holds the
environment, the workload parameters, and the raw samples (untraced) or the
exact counts and design checks (traced).  A human summary goes to stderr.
The run is one process on one thread, pinned to one CPU, apart from the
short-lived interpreters that measure set-up time.

End-to-end times are host-normalised.  Each timed operation runs as a few
steps (a keymark call each), a fixed `Fraction` loop that does not touch
keymark (the host gauge) runs between steps, and a sample is the sum over
the steps of their wall time scaled by REFERENCE_GAUGE_S over the gauge
time around them.  The shared host this was built on switches between a
fast state and states 1.9x to 3x slower, for seconds to minutes at a time;
raw seconds follow those states, the scaled ones follow the program.  Raw medians are in
the info line.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from collections import Counter, defaultdict
from fractions import Fraction
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

END_TO_END = {
    "setup_s": "s",
    "scheme_a_s": "s",
    "scheme_b_s": "s",
    "verify_s": "s",
    "simulate_s": "s",
    "certify_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metric -> span whose total self time it reports.
LAYER_SELF = {
    "thot.decompose_t_hot_s": "thot.decompose_t_hot",
    "split.split_px_s": "split.split_px",
    "core.ReducedKeySet.key_s": "core.ReducedKeySet.key",
    "core.ReducedKeySet.index_s": "core.ReducedKeySet.index",
    "construct_a.build_pm1_s": "construct_a.build_pm1",
    "construct_a.build_pm2_s": "construct_a.build_pm2",
    "construct_a.build_pm3_s": "construct_a.build_pm3",
    "construct_a.restore_token_order_s": "construct_a.restore_token_order",
    "core.merge_tables_s": "core.merge_tables",
    "construct_b.extend_px_s": "construct_b.extend_px",
    "construct_b.self_s": "construct_b.construct_b",
    "metrics.check_scheme_s": "metrics.check_scheme",
    "metrics.miss_detection_s": "metrics.miss_detection",
    "metrics.worst_false_alarm_s": "metrics.worst_false_alarm",
    "serialize.serialize_scheme_s": "serialize.serialize_scheme",
    "serialize.deserialize_scheme_s": "serialize.deserialize_scheme",
    "rationals.parse_mass_s": "rationals.parse_mass",
    "sim.monte_carlo_s": "sim.monte_carlo",
    "lp.build_primal_s": "lp.build_primal",
    "simplex.simplex_solve_s": "simplex.simplex_solve",
    "lp.check_dual_s": "lp.check_dual",
}
# Per-layer metric -> span whose call count it reports.
LAYER_CALLS = {
    "core.ReducedKeySet.key.calls": "core.ReducedKeySet.key",
    "core.ReducedKeySet.index.calls": "core.ReducedKeySet.index",
}
# Exact work counts; each must repeat exactly for a given seed.
COUNT_UNITS = {
    "thot.terms": "count",
    "construct_b.pseudo_tokens": "count",
    "serialize.doc_bytes": "bytes",
    "simplex.pivots": "count",
    "lp.nvars": "count",
    "scheme.cells": "count",
    "scheme.key_support": "count",
    "scheme.max_den_bits": "bits",
}
PER_LAYER = {
    **{name: "s" for name in LAYER_SELF},
    **{name: "count" for name in LAYER_CALLS},
    **COUNT_UNITS,
    "trace.overhead_s": "s",
}

ROUND_POOL = 16  # distinct rounds generated per run; a fast machine cycles them
SETUP_REPEATS = 7  # timed fresh interpreters per run, after one warm-up
# Host gauge time on the reference host: a 2-vCPU x86-64 VM in its fast state.
# A metric reads as seconds on that host.
REFERENCE_GAUGE_S = 0.015
GAUGE_REUSE_S = 0.05  # a gauge younger than this is reused, not taken again
# |z| limit for each Monte Carlo estimate.  A correct sampler exceeds 4 about
# once in 16,000 estimates, and a full set of runs makes thousands of them;
# it exceeds 5 about once in 1.7 million.
Z_LIMIT = 5


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="toy sizes, same code path")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


class Runner:
    """Runs rounds through every stage, counting attempts and failures.

    A failure is an exception or an exact check that does not hold; it is
    reported on stderr and counted, and the run goes on.  Timings of failed
    operations are not kept.  Each kept timing is stored per metric and per
    instance shape (position in the round), raw and host-normalised.

    An operation is timed as a few steps, each between host gauges, so that
    a change of the host's speed during a long operation is seen near where
    it happened.  A gauge younger than GAUGE_REUSE_S is reused, which keeps
    the gauges from swamping operations of a few milliseconds.
    """

    def __init__(self, km, trials: int) -> None:
        self.km = km
        self.trials = trials
        self.attempted = 0
        self.failed = 0
        self.raw: dict[str, dict[int, list[float]]] = defaultdict(lambda: defaultdict(list))
        self.scaled: dict[str, dict[int, list[float]]] = defaultdict(lambda: defaultdict(list))
        self.counts: Counter[str] = Counter()
        self.gauges: list[float] = []
        self._gauge = (float("-inf"), 0.0)  # (taken at, seconds) of the latest gauge
        self.shape = 0  # position of the current instance in its round

    def gauge(self) -> float:
        taken_at, seconds = self._gauge
        if perf_counter() - taken_at >= GAUGE_REUSE_S:
            seconds = host_gauge()
            self._gauge = (perf_counter(), seconds)
            self.gauges.append(seconds)
        return seconds

    def attempt(self, label: str, timed, check):
        """Run `timed(step)`, which makes its timed calls as `step(fn, *args)`,
        then the untimed `check` on its value."""
        self.attempted += 1
        parts: list[tuple[float, float]] = []  # (seconds, gauge around them) per step

        def step(fn, *args):
            before = self.gauge()
            start = perf_counter()
            value = fn(*args)
            parts.append((perf_counter() - start, (before + self.gauge()) / 2))
            return value

        try:
            value = timed(step)
            ok = check(value)
        except Exception:
            self.failed += 1
            print(f"FAILED {label}:", file=sys.stderr)
            traceback.print_exc()
            return None
        if not ok:
            self.failed += 1
            print(f"FAILED {label}: exact check does not hold", file=sys.stderr)
            return None
        self.record(label, parts)
        return value

    def record(self, metric: str, parts: list[tuple[float, float]], shape: int | None = None) -> None:
        shape = self.shape if shape is None else shape
        self.raw[metric][shape].append(sum(seconds for seconds, _ in parts))
        self.scaled[metric][shape].append(sum(seconds * REFERENCE_GAUGE_S / gauge for seconds, gauge in parts))

    def skip(self, label: str) -> None:
        """An operation that cannot run because its input failed."""
        self.attempted += 1
        self.failed += 1
        print(f"FAILED {label}: input stage failed", file=sys.stderr)

    def run_round(self, rnd, index: int) -> None:
        """Every scheme stage on each of the round's instances, Monte Carlo
        on one instance and certification of one LP, both taken in turn by
        round index, so a run covers every shape of a workload."""
        simulated = index % len(rnd.schemes)
        for shape, inst in enumerate(rnd.schemes):
            self.shape = shape
            scheme_a = self.scheme_stage("scheme_a_s", "construct_a", inst)
            self.scheme_stage("scheme_b_s", "construct_b", inst)
            if scheme_a is None:
                self.skip("verify_s")
            else:
                self.verify_stage(scheme_a)
            if shape == simulated:
                if scheme_a is None:
                    self.skip("simulate_s")
                else:
                    self.simulate_stage(scheme_a, rnd.mc_seed)
        self.shape = index % len(rnd.lps)
        self.certify(rnd.lps[self.shape])

    def scheme_stage(self, metric: str, method: str, inst):
        km = self.km

        def timed(step):
            scheme = step(getattr(km, method), inst.px, inst.alpha, inst.t)
            return scheme, step(km.check_scheme, scheme).ok, step(km.error_report, scheme).gap

        value = self.attempt(metric, timed, lambda v: v[1] and v[2] == 0)
        if value is None:
            return None
        scheme = value[0]
        self.counts["scheme.cells"] += sum(len(row) for t in scheme.tables for row in t.rows.values())
        self.counts["scheme.key_support"] += len(scheme.key_support())
        bits = max(m.denominator.bit_length() for t in scheme.tables for _, _, m in t.cells())
        self.counts["scheme.max_den_bits"] = max(self.counts["scheme.max_den_bits"], bits)
        if method == "construct_b":
            self.counts["construct_b.pseudo_tokens"] += scheme.provenance["pseudo_tokens"]
        return scheme

    def verify_stage(self, scheme) -> None:
        km = self.km

        def timed(step):
            text = step(lambda: json.dumps(km.serialize_scheme(scheme)))
            loaded = step(lambda: km.deserialize_scheme(json.loads(text)))
            return text, loaded, step(km.check_scheme, loaded).ok, step(km.error_report, loaded).gap

        def check(value) -> bool:
            _, loaded, ok, gap = value
            return ok and gap == 0 and same_scheme(loaded, scheme)

        value = self.attempt("verify_s", timed, check)
        if value is not None:
            self.counts["serialize.doc_bytes"] += len(value[0].encode())

    def simulate_stage(self, scheme, seed: int) -> None:
        km = self.km
        messages = (*range(1, scheme.t + 1), 0)

        def timed(step):
            return [step(km.monte_carlo, scheme, m, self.trials, seed) for m in messages]

        self.attempt("simulate_s", timed, lambda reports: all(abs(r.z_score) <= Z_LIMIT for r in reports))

    def certify(self, lp) -> None:
        km = self.km

        def timed(step):
            if lp.keyset == "bijective":
                keyset = step(km.bijective_keyset, lp.px.n, lp.t)
            else:
                keyset = step(km.enumerate_reduced_keyset, lp.px.n, lp.t)
            problem = step(km.build_primal, lp.px, lp.alpha, lp.t, keyset)
            solution = step(km.solve, problem)
            return problem, solution, step(km.check_dual, problem, solution.dual)

        def check(value) -> bool:
            _, solution, (feasible, bound) = value
            expected = lp.expected
            if expected is None:
                expected = km.optimal_value(lp.px, lp.alpha, lp.t)
            return solution.status == "optimal" and feasible and bound == solution.objective == expected

        value = self.attempt("certify_s", timed, check)
        if value is not None:
            self.counts["simplex.pivots"] += value[1].pivots
            self.counts["lp.nvars"] += value[0].nvars


def same_scheme(loaded, original) -> bool:
    """The loaded document carries the original's exact data."""
    return (
        loaded.px.probs == original.px.probs
        and loaded.alpha == original.alpha
        and (loaded.keyset.kind, loaded.keyset.length, loaded.keyset.t)
        == (original.keyset.kind, original.keyset.length, original.keyset.t)
        and [{k: dict(r) for k, r in t.rows.items()} for t in loaded.tables]
        == [{k: dict(r) for k, r in t.rows.items()} for t in original.tables]
    )


def measure_setup(args: argparse.Namespace, runner: Runner) -> None:
    """Wall seconds for fresh interpreters that import keymark and build the
    workload's inputs, each between two host gauges; the first one warms the
    bytecode and file caches and is not kept."""
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        command.append("--smoke")
    for attempt in range(SETUP_REPEATS + 1):
        runner.attempted += 1
        before = runner.gauge()
        start = perf_counter()
        done = subprocess.run(command, capture_output=True, text=True, timeout=60)
        elapsed = perf_counter() - start
        gauge = (before + runner.gauge()) / 2
        if done.returncode != 0:
            runner.failed += 1
            print(f"FAILED setup probe:\n{done.stderr}", file=sys.stderr)
        elif attempt > 0:
            runner.record("setup_s", [(elapsed, gauge)], shape=0)


def environment(args: argparse.Namespace, cap: int) -> dict:
    try:
        import gmpy2  # noqa: F401

        backend = "gmpy2"
    except ImportError:
        backend = "fractions"
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "backend": backend,
        "seed": args.seed,
        "nproc": os.cpu_count(),
        "KEYMARK_KEYSET_CAP": cap,
    }


def jsonable(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, dict):
        return {k: jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    return value


def trials(args: argparse.Namespace) -> int:
    """Monte Carlo trials per estimate."""
    return 10**4 if args.smoke else 10**5


def stage_value(per_shape: dict[int, list[float]], metric: str) -> float | None:
    """Median per instance shape; certify_s sums them (seconds per pass over
    the LP set), the other stages average them (seconds per instance)."""
    medians = [statistics.median(values) for values in per_shape.values() if values]
    if not medians:
        return None
    return sum(medians) if metric == "certify_s" else sum(medians) / len(medians)


def host_gauge() -> float:
    """Seconds for a fixed Fraction loop that does not touch keymark.

    Garbage collection is off while it runs, so the size of the program's
    heap does not leak into it.
    """
    gc.disable()
    try:
        start = perf_counter()
        total = Fraction(0)
        for i in range(1, 6001):
            total += Fraction(i % 97 + 1, i % 89 + 2)
        return perf_counter() - start
    finally:
        gc.enable()


def pin_to_one_cpu() -> None:
    """Keep the run, and the probes it starts, on one CPU, so that a gauge
    measures the CPU the operation next to it ran on."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def warm_up(runner: Runner, rounds) -> None:
    """One untimed round (the cheapest LP of lp-cert) finishes lazy set-up
    inside the program, such as the first Monte Carlo call's.  Its attempts
    and failures count; its timings and counts are dropped."""
    runner.run_round(rounds[-1], -1)
    runner.raw.clear()
    runner.scaled.clear()
    runner.counts.clear()


def run_untraced(args, rounds, km) -> tuple[Runner, dict, dict]:
    runner = Runner(km, trials(args))
    warm_up(runner, rounds)
    measure_setup(args, runner)
    # Rounds cycle the shapes an instance or LP can take; cover each once.
    shapes = max(len(rounds[0].schemes), len(rounds[0].lps))
    start = perf_counter()
    done = 0
    while True:
        elapsed = perf_counter() - start
        # No round starts that the mean round so far would end past
        # --seconds, so a slow host does not stretch the run by a round.
        if done >= shapes and elapsed + elapsed / done >= args.seconds:
            break
        runner.run_round(rounds[done % len(rounds)], done)
        done += 1
    timings = [name for name in END_TO_END if name != "peak_rss_mb"]
    metrics = {name: stage_value(runner.scaled[name], name) for name in timings}
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    info = {
        "rounds": done,
        "measured_s": perf_counter() - start,
        "reference_gauge_s": REFERENCE_GAUGE_S,
        "host_gauge_s": statistics.quantiles(runner.gauges, n=4) if len(runner.gauges) > 1 else runner.gauges,
        "raw_s": {name: stage_value(runner.raw[name], name) for name in timings},
        "samples_s": {name: runner.scaled[name] for name in timings},
        "samples_raw_s": {name: runner.raw[name] for name in timings},
    }
    return runner, metrics, info


def run_traced(args, rounds, km) -> tuple[Runner, dict, dict]:
    from tracing import Tracer

    untraced = Runner(km, trials(args))
    warm_up(untraced, rounds)
    start = perf_counter()
    for index, rnd in enumerate(rounds):
        untraced.run_round(rnd, index)
    untraced_s = perf_counter() - start

    traced = Runner(km, trials(args))
    tracer = Tracer()
    with tracer.install():
        start = perf_counter()
        for index, rnd in enumerate(rounds):
            tracer.round = index
            traced.run_round(rnd, index)
        traced_s = perf_counter() - start

    # Output-derived counts of the same rounds must agree between the passes.
    if untraced.counts != traced.counts:
        traced.failed += 1
        print(f"FAILED counts differ: {dict(untraced.counts)} != {dict(traced.counts)}", file=sys.stderr)
    traced.attempted += untraced.attempted + 1
    traced.failed += untraced.failed

    seconds, calls = tracer.summary()
    counts = {name: traced.counts[name] + tracer.counts[name] for name in COUNT_UNITS}
    metrics = {name: seconds.get(span, 0.0) for name, span in LAYER_SELF.items()}
    metrics.update({name: calls.get(span, 0) for name, span in LAYER_CALLS.items()})
    metrics.update(counts)
    metrics["trace.overhead_s"] = traced_s - untraced_s

    construct_a = tracer.self_within({"construct_a.construct_a"})
    check_report = tracer.self_within({"metrics.check_scheme", "metrics.error_report"})
    certify = tracer.self_within({"lp.build_primal", "lp.solve", "lp.check_dual"})
    info = {
        "rounds": len(rounds),
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "spans": len(tracer.spans),
        "counts": {**counts, **{name: metrics[name] for name in LAYER_CALLS}},
        "design": {
            "construct_a_top_self": max(construct_a, key=construct_a.get, default=None),
            "check_report_top_self": max(check_report, key=check_report.get, default=None),
            "simplex_share_of_certify": seconds.get("simplex.simplex_solve", 0.0) / sum(certify.values())
            if certify else None,
        },
    }
    print("self time by span (s, calls):", file=sys.stderr)
    for name, total in sorted(seconds.items(), key=lambda kv: -kv[1]):
        print(f"  {name:36s} {total:10.4f} {calls[name]:9d}", file=sys.stderr)
    return traced, metrics, info


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "keymark" / "__init__.py").is_file():
        print(f"error: keymark sources not found at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import keymark
    from workloads import KEYSET_CAP, WORKLOADS, make_rounds

    if Path(keymark.__file__).resolve().parent != SRC / "keymark":
        print(f"error: imported keymark from {keymark.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    os.environ["KEYMARK_KEYSET_CAP"] = str(KEYSET_CAP)
    pin_to_one_cpu()
    if args.setup_probe:
        make_rounds(workload, args.seed, ROUND_POOL, args.smoke)
        return 0

    if args.trace:
        rounds = make_rounds(workload, args.seed, workload.trace_rounds, args.smoke)
        runner, metrics, info = run_traced(args, rounds, keymark)
        units = PER_LAYER
    else:
        rounds = make_rounds(workload, args.seed, ROUND_POOL, args.smoke)
        runner, metrics, info = run_untraced(args, rounds, keymark)
        units = END_TO_END

    params = workload.smoke_params if args.smoke else workload.params
    print(json.dumps({
        "environment": environment(args, KEYSET_CAP),
        "workload": {"name": workload.name, "smoke": args.smoke, "params": jsonable(params)},
        **info,
    }))
    for name, unit in units.items():
        print(f"{name:36s} {metrics[name]} {unit}", file=sys.stderr)
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

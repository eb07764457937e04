"""zdgames benchmark runner.

    python3 perfbench/run.py --workload exact-small --seed 1 --seconds 45 --trace 0

Builds the workload's inputs from ``--seed``, repeats its cycle of
operations as a closed loop (one client, one operation at a time) until
``--seconds`` have passed and a cycle is complete, checks every output
against its oracle, and prints as its last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Earlier lines give
the provenance, the full report and any failures.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs every
operation twice, once untraced and once with spans recorded around the
library's public functions (alternating which goes first), and reports the
per-layer metrics, the single-call size sweep and the tracing overhead.
Spans are written to ``perfbench/out/`` at exit.

The library is imported from ``src/`` of the checkout this file sits in;
without it the runner exits with status 2.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

BLAS_THREADS = 1  # a 2-thread BLAS ran N = 100 solves 10x slower on a shared 2-core box
SETUP_PROBES = 3  # before and again after the timed loop, so they see different load
FLOOR_PROBES = 5
TAIL_BEYOND = 10
SWEEP_SIZES = (2, 3, 6, 10, 20)
SWEEP_FUNCTIONS = ("transition_matrix", "stationary", "cofactor_row", "expected_scores")
SWEEP_BUDGET_S = 0.05
CLI_SUBCOMMANDS = ("analyze", "zd", "extort", "pin", "simulate", "scan")

WORKLOAD_NAMES = ("exact-small", "exact-large", "montecarlo", "cli")


class Sample(NamedTuple):
    index: int  # position of the operation in the workload's cycle
    kind: str
    seconds: float
    problems: list
    pairs: int
    rounds: int
    traced: bool


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", choices=("setup", "play-memory"), help=argparse.SUPPRESS)
    return parser.parse_args(argv)


@contextmanager
def scratch_dir(prefix):
    OUT.mkdir(exist_ok=True)
    path = tempfile.mkdtemp(prefix=prefix, dir=OUT)
    try:
        yield Path(path)
    finally:
        shutil.rmtree(path, ignore_errors=True)


def child_env():
    return dict(os.environ, PYTHONPATH=str(SRC))


def median_seconds(command, probes):
    """Median wall time of running ``command`` to completion ``probes`` times."""
    times = []
    for _ in range(probes):
        start = perf_counter()
        subprocess.run(command, env=child_env(), check=True, stdout=subprocess.DEVNULL)
        times.append(perf_counter() - start)
    return statistics.median(times)


def measure_setup(args, probes):
    """Times from spawning a fresh interpreter until its inputs are built."""
    command = [
        sys.executable, str(HERE / "run.py"), "--probe", "setup",
        "--workload", args.workload, "--seed", str(args.seed),
    ]
    times = []
    for _ in range(probes):
        start = perf_counter()
        proc = subprocess.Popen(command, env=child_env(), stdout=subprocess.PIPE)
        with proc.stdout:
            line = proc.stdout.readline()
            times.append(perf_counter() - start)
            proc.stdout.read()
        if proc.wait() != 0 or line.strip() != b"ready":
            raise RuntimeError(f"set-up probe failed with status {proc.returncode}")
    return times


def run_op(op, index, tracer, op_id):
    if tracer is not None:
        tracer.op = op_id
        tracer.install()
    start = perf_counter()
    try:
        problems, pairs, rounds = op.run(tracer)
    except Exception as exc:  # a failed operation is counted; the run goes on
        problems, pairs, rounds = [("raised", f"{type(exc).__name__}: {exc}")], 0, 0
    seconds = perf_counter() - start
    if tracer is not None:
        tracer.uninstall()
    return Sample(index, op.kind, seconds, problems, pairs, rounds, tracer is not None)


def measure(workload, seconds, tracer):
    """Repeat the cycle until ``seconds`` have passed, stopping only after
    a whole cycle, so every operation ran equally often.

    Returns the samples and the wall time.  With a tracer, each operation
    runs untraced and traced back to back, alternating which goes first.
    """
    cycle = workload.cycle
    samples = []
    k = 0
    start = perf_counter()
    while k % len(cycle) or perf_counter() - start < seconds:
        index = k % len(cycle)
        if tracer is None:
            samples.append(run_op(cycle[index], index, None, k))
        else:
            for traced in ((False, True) if k % 2 == 0 else (True, False)):
                samples.append(run_op(cycle[index], index, tracer if traced else None, k))
        k += 1
    return samples, perf_counter() - start


def fastest(samples):
    """The fastest execution of each distinct operation."""
    best = {}
    for s in samples:
        if s.index not in best or s.seconds < best[s.index].seconds:
            best[s.index] = s
    return list(best.values())


def timed(samples, workload):
    """The executions that latency and throughput are taken over.

    Other tenants of a shared host slow every execution by up to 2x in
    bursts of seconds to minutes.  An in-process operation repeats dozens
    of times in a run, and its fastest execution skips the bursts while
    still moving with the cost of the code.  A CLI call repeats only 15 to
    20 times, and the fastest of so few process starts spreads more
    from run to run than the median of all of them, so workloads with
    ``timing = "every"`` keep every execution.
    """
    return fastest(samples) if workload.timing == "fastest" else samples


def is_failure(sample):
    return any(cause != "known-defect" for cause, _ in sample.problems)


def is_known_defect(sample):
    return any(cause == "known-defect" for cause, _ in sample.problems)


def tail(latencies):
    """Highest percentile with at least TAIL_BEYOND samples beyond it.

    Returns (value, percentile); with too few samples, the maximum at 100.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def single_call_us(fn):
    """Median microseconds of one call, repeated for about SWEEP_BUDGET_S."""
    start = perf_counter()
    fn()
    first = perf_counter() - start
    times = []
    for _ in range(min(200, max(5, int(SWEEP_BUDGET_S / max(first, 1e-9))))):
        start = perf_counter()
        fn()
        times.append(perf_counter() - start)
    return statistics.median(times) * 1e6


def size_sweep(seed):
    """Single-call cost of four chain functions at N = 4, 9, 36, 100, 400."""
    import numpy as np

    import workloads
    from zdgames import chain

    rng = np.random.default_rng([seed, 5])
    metrics = {}
    for n in SWEEP_SIZES:
        game = workloads.mutual_game(rng, n, n, 1.0)
        p = workloads.interior_strategy(rng, "alpha", n, n)
        q = workloads.interior_strategy(rng, "beta", n, n)
        P = chain.transition_matrix(p, q)
        calls = {
            "transition_matrix": lambda: chain.transition_matrix(p, q),
            "stationary": lambda: chain.stationary(P),
            "cofactor_row": lambda: chain.cofactor_row(P),
            "expected_scores": lambda: chain.expected_scores(game, p, q),
        }
        for name in SWEEP_FUNCTIONS:
            metrics[f"chain.{name}.us_N{n * n}"] = (single_call_us(calls[name]), "us")
    return metrics


def play_memory_mb(args):
    """Peak RSS growth of a fresh process over the workload's largest simulation."""
    command = [
        sys.executable, str(HERE / "run.py"), "--probe", "play-memory",
        "--workload", args.workload, "--seed", str(args.seed),
    ]
    done = subprocess.run(command, env=child_env(), check=True, capture_output=True, text=True)
    return json.loads(done.stdout.splitlines()[-1])["peak_alloc_mb"]


def probe(args):
    import workloads

    with scratch_dir(f"probe-{args.workload}-") as scratch:
        workload = workloads.WORKLOADS[args.workload](args.seed, scratch)
        if args.probe == "setup":
            print("ready", flush=True)
            return
        inputs = workload.play_probe()
    from zdgames import simulate

    before = peak_rss_kb()
    if inputs is not None:
        simulate.play(*inputs)
    after = peak_rss_kb()
    print(json.dumps({"peak_alloc_mb": (after - before) / 1024}))


def peak_rss_kb():
    """Peak RSS of this process since its exec, in KiB.

    ``ru_maxrss`` would also count the peak of whatever process exec
    replaced (on Linux it carries over), so the per-address-space VmHWM is
    read instead where /proc has it.
    """
    try:
        with open("/proc/self/status", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return done.stdout.strip()


def source_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "zdgames").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(args):
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": platform.machine(),
        "cpu": cpu_model(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_version,
        "blas_threads": BLAS_THREADS,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


def throughput(samples):
    """Pairs and rounds per second of operation latency, and the latency sum."""
    busy = sum(s.seconds for s in samples)
    pairs = sum(s.pairs for s in samples)
    rounds = sum(s.rounds for s in samples)
    return pairs / busy, rounds / busy, busy


def end_to_end(samples, wall, setup_times, workload):
    latencies = [s.seconds for s in timed(samples, workload)]
    tail_value, tail_pct = tail(latencies)
    pairs_per_s, rounds_per_s, busy = throughput(timed(samples, workload))
    peak_kb = workload.runner.peak_rss_kb if workload.runner is not None else peak_rss_kb()
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "pairs_per_s": (pairs_per_s, "1/s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "op_tail_ms": (tail_value * 1e3, "ms"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }
    failed = sum(1 for s in samples if s.problems)
    report = {
        "wall_s": wall,
        "busy_s": busy,
        "executions": len(samples),
        "distinct_ops": len(workload.cycle),
        "timing": workload.timing,
        "pairs": sum(s.pairs for s in samples),
        "rounds": sum(s.rounds for s in samples),
        "rounds_per_s": rounds_per_s,
        "ops_failed_frac": failed / len(samples),
        "ops_failed": failed,
        "ops_known_defect": sum(1 for s in samples if is_known_defect(s)),
        "ops_attempted": len(samples),
        "op_tail_percentile": tail_pct,
        "op_tail_samples_beyond": min(TAIL_BEYOND, len(latencies) - 1),
        "setup_probes_s": setup_times,
    }
    return metrics, report


def per_layer(samples, tracer, setup_spans, args, workload):
    spans = tracer.spans
    calls, busy, own, layer_self = tracing.summarize(spans)
    counts = tracer.counts
    untraced = [s for s in samples if not s.traced]
    traced = [s for s in samples if s.traced]
    pairs_plain, rounds_plain, busy_plain = throughput(timed(untraced, workload))
    pairs_traced, rounds_traced, busy_traced = throughput(timed(traced, workload))

    def ratio(num, den):
        return num / den if den else 0.0

    synth = ("zd.synthesize_zd_alpha", "zd.synthesize_zd_beta")
    loads = ("documents.load_game", "documents.load_strategy")
    saves = ("documents.save_game", "documents.save_strategy")
    synth_calls = sum(calls[n] for n in synth)
    play_rounds = counts["simulate.play.rounds"]
    metrics = {
        "model.make_strategy.calls": (calls["model.make_strategy"], "count"),
        "model.make_strategy.busy_s": (busy["model.make_strategy"], "s"),
        "model.make_strategy.setup_calls": (sum(1 for s in setup_spans if s[0] == "model.make_strategy"), "count"),
        "chain.transition_matrix.calls": (calls["chain.transition_matrix"], "count"),
        "chain.transition_matrix.busy_s": (busy["chain.transition_matrix"], "s"),
        "chain.stationary.calls": (calls["chain.stationary"], "count"),
        "chain.stationary.busy_s": (busy["chain.stationary"], "s"),
        "chain.stationary.nonunique": (counts["chain.stationary.nonunique"], "count"),
        "chain.zd_feasibility_condition.busy_s": (busy["chain.zd_feasibility_condition"], "s"),
        "chain.expected_scores.self_s": (own["chain.expected_scores"], "s"),
        "zd.synthesize.calls": (synth_calls, "count"),
        "zd.synthesize.busy_s": (sum(busy[n] for n in synth), "s"),
        "zd.synthesize.feasible_ratio": (ratio(sum(counts[f"{n}.feasible"] for n in synth), synth_calls), "ratio"),
        "zd.press_dyson_determinant.busy_s": (busy["zd.press_dyson_determinant"], "s"),
        "zd.score_combination.busy_s": (busy["zd.score_combination"], "s"),
        "zd.score_combination.degenerate": (counts["zd.score_combination.degenerate"], "count"),
        "zd.pin_opponent_score.calls": (calls["zd.pin_opponent_score"], "count"),
        "zd.pin_opponent_score.busy_s": (busy["zd.pin_opponent_score"], "s"),
        "zd.pin_opponent_score.failed": (counts["zd.pin_opponent_score.failed"], "count"),
        "zd.pin.synth_per_call": (tracing.children_per_call(spans, "zd.pin_opponent_score", synth), "count"),
        "extortion.extortion_factor_bounds.busy_s": (busy["extortion.extortion_factor_bounds"], "s"),
        "extortion.theta_max.busy_s": (busy["extortion.theta_max"], "s"),
        "extortion.extortion_strategy.busy_s": (busy["extortion.extortion_strategy"], "s"),
        "extortion.extortion_strategy.feasible_ratio": (
            ratio(counts["extortion.extortion_strategy.feasible"], calls["extortion.extortion_strategy"]),
            "ratio",
        ),
        "simulate.play.calls": (calls["simulate.play"], "count"),
        "simulate.play.busy_s": (busy["simulate.play"], "s"),
        "simulate.play.ns_per_round": (ratio(busy["simulate.play"], play_rounds) * 1e9, "ns"),
        "simulate.play.peak_alloc_mb": (
            play_memory_mb(args) if workload.play_probe() is not None else 0.0,
            "MB",
        ),
        "documents.load.calls": (sum(calls[n] for n in loads), "count"),
        "documents.load.busy_s": (sum(busy[n] for n in loads), "s"),
        "documents.save.busy_s": (sum(busy[n] for n in saves), "s"),
        "cli.interp_s": (median_seconds([sys.executable, "-c", "pass"], FLOOR_PROBES), "s"),
        "cli.import_s": (median_seconds([sys.executable, "-c", "import zdgames"], FLOOR_PROBES), "s"),
    }
    for sub in CLI_SUBCOMMANDS:
        times = [s.seconds for s in timed(untraced, workload) if s.kind == sub]
        metrics[f"cli.{sub}.p50_ms"] = (statistics.median(times) * 1e3 if times else 0.0, "ms")
    metrics["cli.exit_mismatch"] = (
        sum(1 for s in samples if any(m.startswith("exit") for _, m in s.problems)),
        "count",
    )
    for layer in tracing.LAYERS:
        metrics[f"{layer}.self_s"] = (layer_self[layer], "s")
    metrics["trace.pairs_per_s.untraced"] = (pairs_plain, "1/s")
    metrics["trace.pairs_per_s.traced"] = (pairs_traced, "1/s")
    metrics["trace.rounds_per_s.untraced"] = (rounds_plain, "1/s")
    metrics["trace.rounds_per_s.traced"] = (rounds_traced, "1/s")
    metrics["trace.overhead_frac"] = (busy_traced / busy_plain - 1.0, "ratio")
    metrics.update(size_sweep(args.seed))
    return metrics


def failure_summary(samples):
    groups = Counter()
    for s in samples:
        if s.problems:
            cause, message = s.problems[0]
            groups[(s.kind, cause, message[:160])] += 1
    return [
        {"kind": kind, "cause": cause, "message": message, "count": count}
        for (kind, cause, message), count in sorted(groups.items())
    ]


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "zdgames" / "__init__.py").is_file():
        print(f"error: no zdgames sources under {SRC}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))

    if args.probe:
        probe(args)
        return 0

    import workloads

    tracer = tracing.Tracer() if args.trace else None
    setup_times = [] if args.trace else measure_setup(args, SETUP_PROBES)
    with scratch_dir(f"{args.workload}-") as scratch:
        if tracer is not None:
            tracer.install()
        workload = workloads.WORKLOADS[args.workload](args.seed, scratch)
        setup_spans = []
        if tracer is not None:
            tracer.uninstall()
            setup_spans = list(tracer.spans)
            tracer.spans.clear()
            tracer.counts.clear()
        try:
            workload.prepare()
            for op in workload.warmup():
                run_op(op, -1, None, -1)
            samples, wall = measure(workload, args.seconds, tracer)
        finally:
            workload.close()

    if not args.trace:
        setup_times += measure_setup(args, SETUP_PROBES)
    failures = failure_summary(samples)
    print("provenance " + json.dumps(provenance(args)))
    if tracer is None:
        metrics, report = end_to_end(samples, wall, setup_times, workload)
        print("report " + json.dumps(report))
    else:
        metrics = per_layer(samples, tracer, setup_spans, args, workload)
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.dump(trace_path)
        print(f"spans written to {trace_path.relative_to(ROOT)}")
    print("failures " + json.dumps(failures))
    result = {
        "correct": not any(cause == "mismatch" for s in samples for cause, _ in s.problems),
        "attempted": len(samples),
        "failed": sum(1 for s in samples if is_failure(s)),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

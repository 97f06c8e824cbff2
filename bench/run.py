"""Benchmark of the hassewitt certificate pipeline.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of family, certify, oracle, invariants, cli-cold, or `all` to run
each of them in turn. One client runs ops back to back (a closed loop) for S
seconds, every output is checked, and each metric is printed with its unit.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics are
the end-to-end metrics of BENCHMARK.json; with --trace 1 each op runs twice,
untraced and with spans, and the spans give the per-layer metrics. A run
record (versions, machine, calibration loop) and, when traced, the spans are
written to bench/runs/. The exit code is 0 only when every output checked out.
"""

from __future__ import annotations

import argparse
import compileall
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = BENCH / "runs"

STARTUPS = 10  # fresh interpreters per run; setup_s is their median
WARMUP_S = 0.5
CALIBRATION_ITERATIONS = 3_000_000

WORKLOADS = ("family", "certify", "oracle", "invariants", "cli-cold")


def use_checkout_source() -> None:
    """Import hassewitt from this checkout's src/, never from elsewhere."""
    if not (SRC / "hassewitt" / "__init__.py").is_file():
        raise SystemExit(f"error: no hassewitt package under {SRC}")
    sys.path.insert(0, str(SRC))


def calibrate() -> float:
    """A fixed pure-Python loop: shows whether the machine drifted."""
    t0 = perf_counter()
    x = 0
    for i in range(CALIBRATION_ITERATIONS):
        x += i & 7
    return perf_counter() - t0


def run_record(args) -> dict:
    import numpy

    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or None
    except OSError:
        commit = None
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "started": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


def start_up() -> tuple[float, dict]:
    """Seconds from spawning a fresh interpreter until the program can
    serve, and the child's own timing of each step."""
    t0 = perf_counter()
    with subprocess.Popen(
        [sys.executable, str(BENCH / "startup.py"), str(SRC)],
        stdout=subprocess.PIPE, text=True,
    ) as proc:
        line = proc.stdout.readline()
        t1 = perf_counter()
        proc.stdout.read()
    if proc.returncode != 0 or not line:
        raise RuntimeError(f"start-up failed with exit code {proc.returncode}")
    return t1 - t0, json.loads(line)


def bare_interpreter_s() -> float:
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True)
    return perf_counter() - t0


def closed_loop(op, pool, *, seconds=None, count=None, start=0):
    """Run op on pool[start], pool[start + 1], ... (cyclically), one at a
    time, until `seconds` have passed or `count` ops are done. Returns the
    samples (input, output, error, seconds) and the elapsed time."""
    samples = []
    t_start = perf_counter()
    for i in itertools.count():
        if count is not None and i >= count:
            break
        if seconds is not None and perf_counter() - t_start >= seconds:
            break
        x = pool[(start + i) % len(pool)]
        t0 = perf_counter()
        try:
            out, err = op(x), None
        except Exception as exc:  # a failed op is counted, not fatal
            out, err = None, f"{type(exc).__name__}: {exc}"
        samples.append((x, out, err, perf_counter() - t0))
    return samples, perf_counter() - t_start


def measure(workload, op, pool, seconds: float):
    """The timed phase: `seconds` of ops split into STARTUPS slices, with one
    fresh start-up before each slice, so that setup_s samples the machine in
    the same state as the ops do. After each slice its outputs are checked
    and only what the diagnostics read is kept, so the memory held for
    checking does not grow with the number of ops. Start-ups and checks are
    outside the ops' elapsed time. Returns samples (input, kept output or
    None, error, seconds), the elapsed time and the start-ups."""
    samples, elapsed, setups = [], 0.0, []
    for k in range(1, STARTUPS + 1):
        setups.append(start_up())
        more, spent = closed_loop(
            op, pool, seconds=seconds * k / STARTUPS - elapsed, start=len(samples)
        )
        elapsed += spent
        for x, out, err, t in more:
            err = err or check(workload, x, out)
            samples.append((x, None if err else workload.keep(out), err, t))
    return samples, elapsed, setups


def check(workload, x, out) -> str | None:
    try:
        return workload.check(x, out)
    except Exception as exc:  # a check that crashes is a failed op
        return f"check raised {type(exc).__name__}: {exc}"


def tail(latencies: list[float]) -> tuple[float, int, int]:
    """The highest whole percentile with at least 10 samples beyond it:
    returns its value (nearest rank), the percentile, and the number of
    samples beyond it."""
    xs = sorted(latencies)
    n = len(xs)
    pct = max((100 * n - 1000) // n, 0)  # floor(100 - 1000 / n)
    rank = max(-(-pct * n // 100), 1)  # ceil(pct * n / 100)
    return xs[rank - 1], pct, n - rank


def end_to_end(workload, samples, elapsed, done, setups) -> tuple[dict, dict]:
    latencies = [s[3] for s in samples]
    tail_s, tail_pct, beyond = tail(latencies)
    values = {
        "setup_s": statistics.median(t for t, _ in setups),
        "ops_per_s": len(samples) / elapsed,
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_tail_ms": tail_s * 1e3,
        "peak_rss_mb": workload.peak_rss_mb(done),
    }
    notes = {
        "setup_s": f"median of {len(setups)} fresh start-ups",
        "ops_per_s": f"{len(samples)} ops in {elapsed:.3f} s",
        "latency_p50_ms": f"n={len(latencies)}",
        "latency_tail_ms": f"p{tail_pct}, {beyond} of {len(latencies)} samples beyond",
    }
    return values, notes


def per_layer(workload, pool, args, spec) -> tuple[dict, dict, list]:
    """Each op twice, untraced and with spans, in alternating order so that
    neither gains from caches the other warmed and both see the machine in
    the same state; per-layer values from the spans."""
    import workloads
    from spans import Spans

    closed_loop(lambda x: workload.run_traced(x, Spans(), 0), pool, seconds=WARMUP_S)
    spans = Spans()
    ids = itertools.count()
    plain = []

    def untraced(x):
        plain.extend(closed_loop(workload.run, [x], count=1)[0])

    def pair(x):
        op = next(ids)
        if op % 2:
            out = workload.run_traced(x, spans, op)
            untraced(x)
            return out
        untraced(x)
        return workload.run_traced(x, spans, op)

    traced, _, setups = measure(workload, pair, pool, args.seconds)
    plain = [(x, None, err or check(workload, x, out), t) for x, out, err, t in plain]
    op_s = sum(spans.durations("op"))
    shares = {name: s / op_s for name, (s, _) in spans.self_times().items() if name != "op"}

    # outside any op (id -1): the cli and gerbe layers, which otherwise only
    # cold CLI calls reach, warm and in process, once per subcommand;
    cli = workloads.CliCold(ROOT)
    for argv in cli.one_call_each():
        cli.warm_probe(argv, spans, -1)
    # likewise one fixed cycle of Gram matrices for the diagonalize, h1 and
    # Hasse-Witt layers, which only the invariants workload reaches otherwise
    invariants = workloads.Invariants()
    for gram in itertools.islice(invariants.inputs(0), len(invariants.SIZES)):
        invariants.layers(gram, spans, -1)

    # a metric of a layer this workload never reaches reads 0
    values = {m["name"]: 0 for m in spec["per_layer"]}
    for name, (seconds, calls) in spans.self_times().items():
        if f"{name}.ms" not in values:
            raise KeyError(f"spans named {name!r} have no metric in BENCHMARK.json")
        values[f"{name}.ms"] = seconds * 1e3
        values[f"{name}.calls"] = calls
    values["op.ms"] = op_s * 1e3  # whole op spans, not self time: the base of every share
    values.update(workload.counts([(s[0], s[1]) for s in traced if not s[2]]))
    values["cli.interpreter_ms"] = statistics.median(bare_interpreter_s() for _ in range(STARTUPS)) * 1e3
    for step in ("import_numpy_ms", "import_hassewitt_ms", "first_dyadic_symbol_ms"):
        values[f"cli.{step}"] = statistics.median(child[step] for _, child in setups)
    # throughput lost to tracing: the same ops per second, traced against untraced
    plain_s = sum(s[3] for s in plain)
    values["trace.overhead_frac"] = 1 - (len(traced) / op_s) / (len(plain) / plain_s)

    RUNS.mkdir(parents=True, exist_ok=True)
    spans.write(RUNS / f"{args.workload}-seed{args.seed}-spans.jsonl.gz")
    diagnostics = {"shares_of_op_time": shares, "start_ups_s": [round(t, 4) for t, _ in setups]}
    return values, diagnostics, plain + traced


def run_one(args) -> int:
    use_checkout_source()
    for directory in (SRC, BENCH):
        compileall.compile_dir(str(directory), quiet=1)
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    record = run_record(args)
    record["calibration_start_s"] = calibrate()
    start_up()  # not counted: fills the page cache

    from hassewitt import hilbert_symbol
    from hassewitt.rationals import Place

    # the lazy 2-adic table is built by start-up, so it is in setup_s only
    hilbert_symbol(3, 5, Place.finite(2))
    workload = workloads.get(args.workload, ROOT)
    pool_size = max(64, int(4 * args.seconds / workload.op_seconds))
    pool = list(itertools.islice(workload.inputs(args.seed), pool_size))
    closed_loop(workload.run, pool, seconds=WARMUP_S)

    if args.trace:
        values, diagnostics, samples = per_layer(workload, pool, args, spec)
        section = spec["per_layer"]
        notes = {}
    else:
        samples, elapsed, setups = measure(workload, workload.run, pool, args.seconds)
        done = [(x, kept) for x, kept, err, _ in samples if not err]
        values, notes = end_to_end(workload, samples, elapsed, done, setups)
        diagnostics = workload.summary(done)
        diagnostics["start_ups_s"] = [round(t, 4) for t, _ in setups]
        section = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in section}
    failures = [err for _, _, err, _ in samples if err]

    attempted, failed = len(samples), len(failures)
    diagnostics["failed_frac"] = failed / attempted
    diagnostics["failures"] = failures[:20]
    record["calibration_end_s"] = calibrate()
    record["diagnostics"] = diagnostics
    record["metrics"] = metrics
    RUNS.mkdir(parents=True, exist_ok=True)
    (RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )

    print(f"{args.workload} (seed {args.seed}, trace {args.trace}): {attempted} ops, {failed} failed")
    for name, m in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<42} {m['value']:>14.4f} {m['unit']}{note}")
    for key, value in diagnostics.items():
        if key == "shares_of_op_time":
            for layer, share in sorted(value.items(), key=lambda kv: -kv[1]):
                print(f"  share of op time  {layer:<40} {share:7.1%}")
        elif key != "failures":
            print(f"  {key:<42} {value}")
    for reason in failures[:20]:
        print(f"  FAILED: {reason}")
    print(
        f"  calibration loop {record['calibration_start_s']:.4f} s at start, "
        f"{record['calibration_end_s']:.4f} s at end"
    )
    correct = failed == 0 and attempted > 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in turn, each in its own process so that peak RSS is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        status = status or proc.returncode
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            return proc.returncode or 1
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = m
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())

"""matsep benchmark: seeded closed-loop runs of the CLI, checked against ground truth.

Usage, from the repository root:

    python3 bench/run.py --workload lr-decide --seed 0 --seconds 35 --trace 0

One process, one thread, one caller: each op is ``matsep.cli.main(argv)``
called in-process with stdout captured, and the next op starts only when
the previous one has returned.  The sweep of ops comes from
``workloads.build(workload, seed)`` and runs whole, as many times as
fits ``--seconds``.  Every op is checked: exit code, the ground truth its
input was built to have, and the digest of its report against its first
run (and, for seed 0, against ``golden_seed0.json``).  Durations are
reported in reference seconds (see ``clock.py``).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` spends half
of ``--seconds`` untraced and half traced, and prints the per-layer
metrics, per-command median latencies and the tracing overhead.  The
last line of stdout is one JSON object: correct, attempted, failed,
metrics.

``setup_s`` is timed in fresh interpreters: ``--setup-only`` makes one
set-up, prints ``ready`` and exits, and ``--trace 0`` starts it five
times and reports the median time from process start to ``ready``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import namedtuple
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter

import spans
import workloads
from clock import Clock

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
GOLDEN = os.path.join(HERE, "golden_seed0.json")
SETUP_REPEATS = 5
COMMANDS = ("invariants", "separate", "stability", "nullcone", "phi", "classify",
            "graph", "curve", "certify", "identities", "counts")

# slot: index of the op in the sweep; out: stdout, kept for the first sweep only
Record = namedtuple("Record", "slot start elapsed code digest out error")


def import_cli():
    """Import matsep.cli from this checkout's ``src``."""
    cli = importlib.import_module("matsep.cli")
    if not os.path.abspath(cli.__file__).startswith(os.path.join(SRC, "")):
        raise ImportError(f"matsep.cli imported from {cli.__file__}, not from {SRC}")
    return cli


def write_fixtures(ops, workdir):
    """Write each op's document; return the argv lists with real paths."""
    argvs = []
    for i, op in enumerate(ops):
        path = None
        if op.doc is not None:
            path = os.path.join(workdir, f"{i:03d}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(op.doc, sort_keys=True))
        argvs.append([path if a == "{doc}" else a for a in op.argv])
    return argvs


def run_op(cli, argv):
    """One call into the CLI: (exit code or None, stdout, seconds, error)."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    with redirect_stdout(out), redirect_stderr(err):
        start = perf_counter()
        try:
            code = cli.main(argv)
        except (Exception, SystemExit) as exc:
            code, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = perf_counter() - start
    return code, out.getvalue(), elapsed, error


def setup(workload, seed, workdir):
    """Import, generate, write fixtures and warm up each command once."""
    cli = import_cli()
    ops = workloads.build(workload, seed)
    argvs = write_fixtures(ops, workdir)
    seen = set()
    for op, argv in zip(ops, argvs):
        if op.command not in seen:
            seen.add(op.command)
            run_op(cli, argv)
    return cli, ops, argvs


def cold_setup_seconds(args, clock):
    """Reference seconds from starting a fresh interpreter on
    ``--setup-only`` to its ``ready``: interpreter start, every import,
    input generation, fixtures and warm-up."""
    clock.sample()
    clock.sample()
    argv = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    start = perf_counter()
    with subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        ready = proc.stdout.readline()
        wall = perf_counter() - start
        proc.stdout.read()
        code = proc.wait()
    if ready != "ready\n" or code != 0:
        raise RuntimeError(f"set-up in a fresh process failed (exit code {code})")
    clock.sample()
    clock.sample()
    return wall * clock.scale(start, wall)


def closed_loop(cli, argvs, seconds, clock, tracer=None):
    """Run whole sweeps, one record per op: at least one, and as many as
    end nearest to ``seconds``.  Whole sweeps keep the op mix of every
    run identical, whatever the speed of the host."""
    records = []
    start = perf_counter()
    done = 0
    while True:
        for i, argv in enumerate(argvs):
            clock.maybe_sample()
            if tracer is not None:
                tracer.op = len(records)
            t = perf_counter()
            code, out, elapsed, error = run_op(cli, argv)
            records.append(Record(i, t, elapsed, code, hashlib.sha256(out.encode()).hexdigest(),
                                  out if done == 0 else None, error))
        done += 1
        wall = perf_counter() - start
        if wall + wall / done / 2 >= seconds:
            clock.sample()
            return records


def result_section(out):
    if not out:
        return None
    return json.loads(out)["result"]


def result_digest(result):
    return hashlib.sha256(json.dumps(result, sort_keys=True).encode()).hexdigest()


def verify(ops, records, workload, seed):
    """Check every record; return (failed count, problems, per-op result digests)."""
    problems = {}
    first = {}
    digests = {}
    for r in records:
        if r.slot in first:
            continue
        first[r.slot] = (r.code, r.digest)
        op = ops[r.slot]
        if r.error is not None:
            problems[r.slot] = r.error
            continue
        if r.code != op.exit_code:
            problems[r.slot] = f"exit code {r.code}, expected {op.exit_code}"
            continue
        try:
            result = result_section(r.out)
        except (ValueError, KeyError) as exc:
            problems[r.slot] = f"unreadable report: {exc}"
            continue
        digests[r.slot] = result_digest(result)
        if op.check is not None:
            msg = op.check(result) if result is not None else "no report"
            if msg:
                problems[r.slot] = msg
    if seed == 0:
        with open(GOLDEN, encoding="utf-8") as fh:
            golden = json.load(fh)[workload]
        for i, d in digests.items():
            if golden[i] != d:
                problems.setdefault(i, "result digest differs from golden_seed0.json")
    failed = 0
    for r in records:
        if r.slot in problems or r.error is not None or (r.code, r.digest) != first[r.slot]:
            failed += 1
            problems.setdefault(r.slot, "report differs between runs of the same op")
    return failed, {ops[i].label: msg for i, msg in problems.items()}, digests


def self_test(cli, workload, seed, ops, workdir):
    """Generator determinism and document round-trips; returns problems."""
    problems = []

    def dump(sweep):
        return json.dumps([(op.label, op.argv, op.doc) for op in sweep], sort_keys=True)

    if dump(workloads.build(workload, seed)) != dump(ops):
        problems.append("the same seed gave different documents")
    if dump(workloads.build(workload, seed + 1)) == dump(ops):
        problems.append("a different seed gave the same documents")
    for i, op in enumerate(ops):
        if op.doc is not None:
            path = os.path.join(workdir, f"{i:03d}.json")
            if cli.document_to_json(cli.load_document(path)) != op.doc:
                problems.append(f"{op.label}: document does not round-trip")
    return problems


def tail(latencies):
    """(latency, percentile, samples) at the highest percentile that has
    at least ten samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    k = max(n - 11, 0)
    return ordered[k], 100.0 * (k + 1) / n, n


def end_to_end(latencies, setup_times, failed):
    tail_s, pct, n = tail(latencies)
    print(f"op_tail_ms is the p{pct:.2f} latency of {n} samples "
          f"({n - 1 - max(n - 11, 0)} beyond it)")
    return {
        "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "op_tail_ms": (tail_s * 1e3, "ms"),
        "ok_op_ratio": (1 - failed / len(latencies), "ratio"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_command_p50(ops, records, latencies):
    by_cmd = {c: [] for c in COMMANDS}
    for r, latency in zip(records, latencies):
        by_cmd[ops[r.slot].command].append(latency)
    return {f"cmd.{c}.p50_ms": (statistics.median(v) * 1e3 if v else 0.0, "ms")
            for c, v in by_cmd.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="make one set-up, print 'ready' and exit")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "matsep", "cli.py")):
        sys.stderr.write(f"matsep sources not found under {SRC}\n")
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(ROOT, ".bench_work"))
    try:
        if args.setup_only:
            setup(args.workload, args.seed, workdir)
            print("ready", flush=True)
            return 0
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workdir):
    clock = Clock()
    cli, ops, argvs = setup(args.workload, args.seed, workdir)
    if args.trace == 0:
        setup_times = [cold_setup_seconds(args, clock) for _ in range(SETUP_REPEATS)]

    half = args.seconds if args.trace == 0 else args.seconds / 2
    records = closed_loop(cli, argvs, half, clock)
    latencies = [r.elapsed * clock.scale(r.start, r.elapsed) for r in records]
    if args.trace == 1:
        tracer = spans.Tracer()
        tracer.install()
        try:
            missed = tracer.uncovered()
            traced = closed_loop(cli, argvs, half, clock, tracer)
        finally:
            tracer.uninstall()

    failed, problems, digests = verify(ops, records, args.workload, args.seed)
    problems.update(("self-test", p) for p in self_test(cli, args.workload, args.seed,
                                                         ops, workdir))
    if args.trace == 0:
        metrics = end_to_end(latencies, setup_times, failed)
        attempted = len(records)
        print(f"wall clock: {len(records) / sum(r.elapsed for r in records)} ops/s, "
              f"median {statistics.median(r.elapsed for r in records) * 1e3} ms; "
              f"calibration kernel {clock.kernel_ms()} ms")
    else:
        t_failed, t_problems, t_digests = verify(ops, traced, args.workload, args.seed)
        failed += t_failed
        problems.update(t_problems)
        if any(t_digests[i] != digests[i] for i in t_digests if i in digests):
            problems["trace"] = "traced reports differ from untraced reports"
        if missed:
            problems["trace-coverage"] = f"untraced bindings: {', '.join(missed)}"
        attempted = len(records) + len(traced)
        scales = [clock.scale(r.start, r.elapsed) for r in traced]
        metrics = spans.layer_metrics(tracer.spans, scales)
        metrics.update(per_command_p50(ops, records, latencies))
        traced_latency = sum(r.elapsed * s for r, s in zip(traced, scales))
        metrics["trace.overhead_ratio"] = (
            (len(traced) / traced_latency) / (len(records) / sum(latencies)), "ratio")
        metrics["calibration.kernel_ms"] = (clock.kernel_ms(), "ms")

    for label, msg in sorted(problems.items()):
        print(f"FAILED {label}: {msg}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

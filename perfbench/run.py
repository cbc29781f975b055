"""margex benchmark: four workloads, closed loop, one client.

    python3 perfbench/run.py --workload paint --seed 1 --seconds 25 --trace 0

Runs the named workload's jobs one after another in rounds until
``--seconds`` have passed (and at least two rounds), checks every job's
output, and prints one JSON object as the last line of standard output. With
``--trace 0`` it reports the end-to-end metrics: set-up time, the median
round time and median job time, both stated at a reference host speed (see
``speed.py``; the measured times are printed above the JSON line), and peak
RSS. With ``--trace 1`` it adds a traced round and reports the per-layer
metrics of ``perfbench/layers.py``.
``--workload all`` runs every workload in its own process and prints a table.
``--smoke`` shrinks every input to a size that runs in seconds.

The program is imported from ``src/`` next to this directory; the benchmark
refuses to run against any other copy. Spans, the machine record and CLI
specs go under ``.perfbench/`` in the current directory.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOADS = ("paint", "extension", "skew", "cli")
MIN_ROUNDS = 2
SETUP_PROBES = 2
CLI_PROBES = 3
P90_MIN_JOBS = 100


class BenchError(Exception):
    """The benchmark cannot run here (no program source, wrong copy)."""


def import_program():
    """Import margex from ``SRC`` and the workload builders that use it."""
    if not (SRC / "margex" / "__init__.py").is_file():
        raise BenchError(f"no margex source under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import margex

    if Path(margex.__file__).resolve().parent != (SRC / "margex").resolve():
        raise BenchError(f"imported margex from {margex.__file__}, not from {SRC}")
    import workloads

    return workloads


def setup(workload: str, seed: int, smoke: bool, workdir: Path):
    """Import the program and build the workload's jobs; return jobs and seconds."""
    t0 = perf_counter()
    workloads = import_program()
    jobs = workloads.build(workload, seed, smoke, workdir, SRC)
    return workloads, jobs, perf_counter() - t0


def probe(argv: list[str], env: dict | None = None) -> float:
    """Wall time of one child process that must succeed."""
    t0 = perf_counter()
    subprocess.run(argv, env=env, check=True, capture_output=True, timeout=120)
    return perf_counter() - t0


def setup_in_fresh_process(args) -> float:
    argv = [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", args.workload,
            "--seed", str(args.seed)] + (["--smoke"] if args.smoke else [])
    out = subprocess.run(argv, check=True, capture_output=True, timeout=120, text=True)
    return float(out.stdout.strip().splitlines()[-1])


def run_round(jobs, speed=None) -> tuple[float, list[float], list[str]]:
    """Run every job once; return the jobs' summed time, each job's time and
    the failures. ``speed`` is sampled between jobs, outside their times."""
    durations, failures = [], []
    for job in jobs:
        t = perf_counter()
        try:
            problems = job.run()
        except Exception as err:  # a raising job is a failed job, not a crash
            problems = [f"{type(err).__name__}: {err}"]
        if problems:
            failures.append(f"{job.name}: " + "; ".join(problems))
        durations.append(perf_counter() - t)
        if speed is not None:
            speed.maybe_sample()
    return sum(durations), durations, failures


def run_rounds(jobs, seconds: float, speed=None) -> list[tuple[float, list[float], list[str]]]:
    """At least ``MIN_ROUNDS`` rounds, then more while the next one is
    expected to end within ``seconds``."""
    rounds = []
    start = perf_counter()
    while len(rounds) < MIN_ROUNDS or (
        perf_counter() - start + statistics.median(w for w, _, _ in rounds) <= seconds
    ):
        rounds.append(run_round(jobs, speed))
    return rounds


def machine_record(workdir: Path) -> dict:
    import numpy
    import scipy

    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(HERE.parent.parent))
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=HERE.parent, env=env,
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except OSError:
        sha = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    threads = {k: os.environ.get(k, "unset") for k in
               ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "MF_THREADS")}
    record = {
        "git_sha": sha,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "blas": blas,
        "thread_settings": threads,
        "measurement_scope": "own processes only: no system-wide tracing, no page-cache dropping",
    }
    workdir.mkdir(parents=True, exist_ok=True)
    (workdir / "machine.json").write_text(json.dumps(record, indent=2) + "\n")
    return record


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(args, jobs, own_setup: float):
    from speed import SpeedProbe

    speed = SpeedProbe()
    rounds = run_rounds(jobs, args.seconds, speed)
    setups = [own_setup] + [setup_in_fresh_process(args) for _ in range(SETUP_PROBES)]
    rss_kb = resource.getrusage(
        resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    ).ru_maxrss
    durations = [d for _, ds, _ in rounds for d in ds]
    wall = statistics.median(w for w, _, _ in rounds)
    job_p50 = statistics.median(durations)
    scale = speed.scale()
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "wall_norm_s": metric(wall * scale, "s"),
        "job_p50_norm_s": metric(job_p50 * scale, "s"),
        "peak_rss_mb": metric(rss_kb / 1024.0, "MB"),
    }
    failures = [f for _, _, fs in rounds for f in fs]
    print(f"rounds: {len(rounds)}, jobs: {len(durations)}, "
          f"speed probe median {statistics.median(speed.samples) * 1e3:.4f} ms over {len(speed.samples)}")
    print(f"wall_s: {wall:.6f} s (measured)")
    print(f"job_p50_s: {job_p50:.6f} s (measured)")
    if len(durations) >= P90_MIN_JOBS:
        p90 = statistics.quantiles(durations, n=10)[-1]
        print(f"job_p90_s: {p90:.6f} s over {len(durations)} jobs (measured)")
    return metrics, len(durations), failures


def per_layer(args, workloads, jobs, workdir: Path):
    import layers
    from spans import Tracer

    # half the run gives the untraced baseline, the traced round the rest
    untraced = run_rounds(jobs, args.seconds / 2)
    tracer = Tracer()
    namespaces = [m for n, m in sys.modules.items() if n == "margex" or n.startswith("margex.")]
    tracer.install(namespaces + [workloads])
    try:
        if args.workload == "cli":
            jobs = [workloads.Job(j.name, functools.partial(tracer.call, f"cli.{j.name}", j.run))
                    for j in jobs]
        traced_wall, durations, failures = run_round(jobs)
    finally:
        tracer.uninstall()
    tracer.dump(workdir / f"spans-{args.workload}-seed{args.seed}.jsonl")

    self_s, calls, top = tracer.self_times()
    values: dict[str, float] = {}
    for name, _, _ in layers.SPANS:
        values[f"{name}.self_s"] = self_s.get(name, 0.0)
        values[f"{name}.calls"] = calls[name]
    values.update(tracer.counts)
    mixing_s = tracer.duration("rds.relative_mixing_coefficient")
    values["rds.mixing_samples_per_s"] = tracer.counts["rds.mixing_samples"] / mixing_s if mixing_s else 0.0
    env = workloads.child_env(SRC)
    values["cli.interpreter_s"] = statistics.median(
        probe([sys.executable, "-c", "pass"]) for _ in range(CLI_PROBES))
    values["cli.import_s"] = statistics.median(
        probe([sys.executable, "-c", "import margex"], env) for _ in range(CLI_PROBES))
    for command in layers.CLI_COMMANDS:
        values[f"cli.{command}.wall_s"] = tracer.duration(f"cli.{command}")
    untraced_wall = statistics.median(w for w, _, _ in untraced)
    values["trace.overhead_s"] = traced_wall - untraced_wall
    values["trace.uncovered_s"] = traced_wall - top
    print(f"traced round {traced_wall:.4f} s, untraced median {untraced_wall:.4f} s, "
          f"top-level spans {top:.4f} s")
    for layer, moves in layers.PREDICTIONS.items():
        print(f"prediction {layer}: {moves}")
    metrics = {m["name"]: metric(values.get(m["name"], 0), m["unit"]) for m in layers.per_layer_metrics()}
    all_failures = [f for _, _, fs in untraced for f in fs] + failures
    attempted = sum(len(ds) for _, ds, _ in untraced) + len(durations)
    return metrics, attempted, all_failures


def run_one(args) -> int:
    workdir = Path(".perfbench")
    try:
        workloads, jobs, own_setup = setup(args.workload, args.seed, args.smoke, workdir)
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(repr(own_setup))
        return 0
    record = machine_record(workdir)
    print("machine: " + json.dumps(record, sort_keys=True))
    print(f"workload: {args.workload}, seed {args.seed}, {len(jobs)} jobs per round, "
          f"closed loop with one client")
    if args.trace:
        metrics, attempted, failures = per_layer(args, workloads, jobs, workdir)
    else:
        metrics, attempted, failures = end_to_end(args, jobs, own_setup)
    failed = len(failures)
    for f in failures[:20]:
        print(f"FAILED {f}")
    print(f"failed_ratio: {failed / attempted:.6f} ({failed}/{attempted})")
    for name, m in metrics.items():
        print(f"{name}: {m['value']} {m['unit']}")
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; one summary line per workload."""
    results, code = {}, 0
    for workload in WORKLOADS:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            print(f"{workload}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        results[workload] = result
        extra = [ln for ln in lines if ln.startswith(("wall_s", "job_p50_s", "job_p90_s", "failed_ratio"))]
        shown = ", ".join(f"{k}={v['value']:.6g} {v['unit']}" for k, v in result["metrics"].items())
        print(f"{workload}: correct={result['correct']} {shown}; " + "; ".join(extra))
        code = code or (0 if result["correct"] else 1)
    print(json.dumps(results))
    return code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs for the benchmark's own tests")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())

"""The cjt benchmark: seeded workloads timed end to end and, traced, per layer.

    python3 perfbench/run.py --workload hilbert-chern --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --self-check

Run from the root of a source checkout; cjt is imported from ``src``.
Every pass is a fresh interpreter (``worker.py``), so process-wide caches
start cold as in a CLI call.  Passes repeat, one after another, while the
next one is expected to end within ``--seconds`` (at least MIN_PASSES).

``--trace 0`` reports the end-to-end metrics as medians over the passes.
The times of set-up and of the cases are scaled to a fixed reference
speed of the host (``calibrate.py``): on a shared host the raw times
drift by a fifth or more over minutes, and the scaled ones do not.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics (medians over the traced passes) and the tracing
overhead.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--self-check`` runs one pass of every workload at DEFAULT_SEED and at
another seed and requires identical answers and no failed case: the
oracles do not depend on the seeded bases and points.

See README.md next to this file for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate  # next to this file

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("hilbert-chern", "realize", "pointwise")
DEFAULT_SEED = 0xC0FFEE
MIN_PASSES = 3
MIN_TRACED_PASSES = 2  # one untraced, one traced
# one BLAS / OpenMP thread: fixed, never above nproc, steady on a shared host
THREADS = 1
DEADLINE_S = 170  # the whole run, whatever --seconds says

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_ref_s": "ref_s",
    "slowest_case_ref_s": "ref_s",
    "peak_rss_mb": "MB",
}
# a case with fewer samples of the host's speed is scaled by its pass's
MIN_CASE_SAMPLES = 4


class PassFailed(RuntimeError):
    pass


def git_sha():
    """HEAD of the checkout, read from .git without running git; None if absent."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def worker_env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(THREADS)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_pass(workload, seed, trace, timeout):
    """One worker process; returns its result with setup_s filled in."""
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--trace",
        str(trace),
    ]
    launched = time.monotonic()
    try:
        proc = subprocess.run(
            cmd,
            cwd=ROOT,
            env=worker_env(),
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise PassFailed(f"pass did not end within {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassFailed(
            f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        )
    out = json.loads(lines[-1])
    out["setup_s"] = out["setup_end"] - launched
    return out


def run_passes(workload, seed, seconds, trace):
    """Passes until the next one would end after `seconds`; a list of results."""
    start = time.monotonic()
    passes = []
    least = MIN_TRACED_PASSES if trace else MIN_PASSES
    while True:
        elapsed = time.monotonic() - start
        if len(passes) >= least:
            typical = statistics.median(p["elapsed"] for p in passes)
            if elapsed + typical > seconds:
                break
        # with tracing, passes alternate: untraced, traced, untraced, ...
        traced = 1 if trace and len(passes) % 2 == 1 else 0
        t0 = time.monotonic()
        result = run_pass(workload, seed, traced, DEADLINE_S - elapsed)
        result["elapsed"] = time.monotonic() - t0
        result["traced"] = traced
        passes.append(result)
    return passes


def tally(passes):
    attempted = sum(len(p["cases"]) for p in passes)
    failed = sum(1 for p in passes for c in p["cases"] if c["problems"])
    return attempted, failed


def speed(samples):
    """Reference time of the kernel over its measured mean: < 1 on a slow host."""
    return calibrate.NOMINAL_S / statistics.mean(samples)


def scaled_cases(p):
    """Seconds of each case of pass p at the reference speed."""
    whole = speed(p["calibration_s"])
    return [
        c["seconds"]
        * (speed(c["calibration_s"]) if len(c["calibration_s"]) >= MIN_CASE_SAMPLES else whole)
        for c in p["cases"]
    ]


def end_to_end(passes):
    values = {
        # set-up is too short to sample; its pass's speed is measured
        # seconds later, well within the minutes over which the host drifts
        "setup_s": [p["setup_s"] * speed(p["calibration_s"]) for p in passes],
        "wall_ref_s": [sum(scaled_cases(p)) for p in passes],
        "slowest_case_ref_s": [max(scaled_cases(p)) for p in passes],
        "peak_rss_mb": [p["peak_rss_mb"] for p in passes],
    }
    return {
        name: {"value": statistics.median(v), "unit": END_TO_END_UNITS[name]}
        for name, v in values.items()
    }


def per_layer(passes):
    import spans

    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    metrics = {}
    for name, unit in spans.metric_units().items():
        if name == "bench.trace_overhead_ratio":
            value = statistics.median(p["wall_s"] for p in traced) / statistics.median(
                p["wall_s"] for p in plain
            )
        else:
            vals = [p["layers"][name] for p in traced]
            value = None if None in vals else statistics.median(vals)
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def report(workload, seed, trace, passes):
    """Human-readable lines on stdout, ahead of the JSON result line."""
    facts = dict(passes[0]["facts"])
    facts.update(
        workload=workload,
        seed=seed,
        trace=trace,
        git_sha=git_sha(),
        nproc=os.cpu_count(),
        blas_threads=THREADS,
        passes=len(passes),
    )
    print("# machine " + json.dumps(facts))
    plain = [p for p in passes if not p["traced"]]
    if plain:
        setup = statistics.median(p["setup_s"] for p in plain)
        wall = statistics.median(p["wall_s"] for p in plain)
        pace = statistics.median(speed(p["calibration_s"]) for p in plain)
        print(
            f"# as measured: setup {setup:.4f} s, wall {wall:.4f} s (medians);"
            f" host speed {pace:.3f} of reference"
        )
    names = [c["name"] for c in passes[0]["cases"]]
    for i, name in enumerate(names):
        secs = [p["cases"][i]["seconds"] for p in plain]
        refs = [scaled_cases(p)[i] for p in plain]
        if secs:
            print(
                f"# case {name}: median {statistics.median(secs):.4f} s,"
                f" {statistics.median(refs):.4f} ref_s over {len(secs)}"
            )
    for p in passes:
        for c in p["cases"]:
            for problem in c["problems"]:
                print(f"# FAILED {c['name']}: {problem}")
    attempted, failed = tally(passes)
    print(f"# failed_ratio {failed / attempted:.4f} ({failed} of {attempted} cases)")


def self_check():
    """Answers at DEFAULT_SEED and at another seed must agree, with no failure."""
    ok = True
    for workload in WORKLOADS:
        answers = {}
        for seed in (DEFAULT_SEED, 1):
            result = run_pass(workload, seed, 0, DEADLINE_S)
            _, failed = tally([result])
            for c in result["cases"]:
                for problem in c["problems"]:
                    print(f"{workload} seed {seed} FAILED {c['name']}: {problem}")
            ok = ok and failed == 0
            answers[seed] = [(c["name"], c["answer"]) for c in result["cases"]]
        same = answers[DEFAULT_SEED] == answers[1]
        ok = ok and same
        print(
            f"{workload}: {len(answers[1])} cases, answers "
            + ("identical" if same else "DIFFER")
            + f" at seeds {DEFAULT_SEED} and 1"
        )
    print("self-check " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "cjt" / "__init__.py").is_file():
        print(f"run.py: no cjt sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    try:
        if args.self_check:
            return self_check()
        if args.workload is None:
            parser.error("--workload is required")
        passes = run_passes(args.workload, args.seed, args.seconds, args.trace)
    except PassFailed as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 3
    report(args.workload, args.seed, args.trace, passes)
    attempted, failed = tally(passes)
    metrics = per_layer(passes) if args.trace else end_to_end(passes)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

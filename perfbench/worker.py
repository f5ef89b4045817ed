"""One pass of a perfbench workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload realize --seed 7 --trace 0

Set-up is everything up to the end of input generation: interpreter
start, ``import cjt.cli`` and building the seeded inputs.  The timed phase
then runs every case of the workload once, in order.  In an untraced
pass a ``calibrate.Sampler`` times the reference kernel every quarter
second meanwhile; its time is left out of the cases' times, and its
samples go with each case so ``run.py`` can scale the times to the
reference speed of the host.  The last line of
standard output is one JSON object with the pass's timings, answers and
problems; ``run.py`` starts one worker per pass and aggregates them.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"


def blas_version(np):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        return "unknown"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "cjt" / "__init__.py").is_file():
        print(f"worker: no cjt sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import cjt.cli  # noqa: F401  (the import a CLI call pays)

    import calibrate
    import workloads

    cases = workloads.WORKLOADS[args.workload](args.seed)
    setup_end = time.monotonic()
    calibrate.measure()  # warm-up: first touch of the kernel's memory

    recorder = None
    if args.trace:
        import spans

        recorder = spans.Recorder()
        recorder.install()
    # the host's speed is sampled in untraced passes only, so spans never
    # hold the kernel's time
    sampler = calibrate.Sampler()
    results = []
    wall = 0.0
    if recorder is None:
        sampler.start()
    for index, case in enumerate(cases):
        if recorder is not None:
            recorder.case = index
        first, t0 = len(sampler.samples), sampler.clock()
        try:
            answer, problems = case.run()
        except Exception as exc:  # a failing case is counted, never fatal
            where = traceback.extract_tb(exc.__traceback__)[-1]
            answer = None
            problems = [f"{type(exc).__name__}: {exc} ({where.filename}:{where.lineno})"]
        seconds = sampler.clock() - t0
        results.append(
            {
                "name": case.name,
                "seconds": seconds,
                "calibration_s": sampler.samples[first:],
                "answer": answer,
                "problems": problems,
            }
        )
        wall += seconds
    sampler.stop()
    if recorder is None and not sampler.samples:  # a pass shorter than one interval
        sampler.samples.append(calibrate.measure())

    out = {
        "setup_end": setup_end,
        "wall_s": wall,
        "calibration_s": sampler.samples,
        "cases": results,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if recorder is not None:
        recorder.uninstall()
        out["layers"] = recorder.summary([c["seconds"] for c in results])
        recorder.write(OUT_DIR / f"spans-{args.workload}.jsonl.gz")
    import numpy

    out["facts"] = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_version(numpy),
    }
    print(json.dumps(out, default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One benchmark pass in a fresh process: set up, time the body, check.

Usage (from the root of a checkout, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/worker.py --workload NAME --seed N --workdir DIR
        [--spans FILE] [--setup-only] [--warmup]

Prints one JSON line: ``setup_s`` (first statement of this script to
the first timed call: imports of ``repro`` and input generation),
``wall_s`` (the body), ``peak_rss_mb`` (this process's maximum RSS),
the operation counts, the result digest and the versions the figures
depend on. With ``--spans`` the body runs under the layer tracer, the
spans go to FILE and the per-layer figures ride along.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def environment() -> dict:
    """The machine and library versions a result depends on."""
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "openblas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--warmup", action="store_true")
    args = parser.parse_args()

    from workloads import WORKLOADS

    os.makedirs(args.workdir, exist_ok=True)

    if args.warmup:
        import compileall

        import repro

        compileall.compile_dir(os.path.dirname(repro.__file__), quiet=1)
    run, check = WORKLOADS[args.workload](args.seed, args.workdir)
    setup_s = time.perf_counter() - _START
    record = {"setup_s": setup_s}
    if args.setup_only:
        print(json.dumps(record))
        return 0

    tracer = None
    if args.spans:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        with tracer.span(tracing.ROOT):
            outcomes = run()
        tracer.uninstall()
        record["layers"] = tracer.metrics()
        record["wall_s"] = tracer.wall()
        tracer.dump(args.spans)
    else:
        start = time.perf_counter()
        outcomes = run()
        record["wall_s"] = time.perf_counter() - start
    usage = resource.getrusage(resource.RUSAGE_SELF)
    record["peak_rss_mb"] = usage.ru_maxrss / 1024
    attempted, failures, digest = check(outcomes)
    if tracer is not None and tracer.counts["verify.errors"]:
        # The run cannot say which operation the report belonged to.
        failures = {
            f"op #{op}": "a verify report carried errors"
            for op in range(attempted)
        }
    record.update(
        attempted=attempted,
        failed=len(failures),
        failures=dict(list(failures.items())[:5]),
        digest=digest,
        environment=environment(),
    )
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One repetition of one workload, in a fresh process.

    python3 hostbench/rep.py --workload NAME --seed N --workdir DIR [--trace]

Prints one JSON object on stdout: the set-up and timed-phase CPU seconds
(scaled to host speed by :mod:`speed`), raw CPU and wall seconds, the host
slowdown, peak resident set, the simulated outputs and, with ``--trace``,
the per-layer accumulators of :mod:`layers`.  ``run.py`` starts it with
``src/`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True, help="workload input seed")
    parser.add_argument("--workdir", required=True, type=Path)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    from speed import SpeedSampler

    t0 = time.process_time()
    sampler = SpeedSampler()
    # the sampler's construction is benchmark cost, not set-up
    origin = (time.process_time() - t0, 0, 0.0)
    sampler.start()

    from workloads import WORKLOADS

    setup = WORKLOADS[args.workload][0]
    tracer = None
    if args.trace:
        from layers import LayerTracer

        tracer = LayerTracer()
        tracer.calibrate()
        tracer.install()
    prepared = setup(args.seed, args.workdir)
    # CPU time since interpreter start: imports, model build, compile and
    # SoC construction -- what every invocation pays before simulating.
    ready = sampler.mark()

    wall0 = time.perf_counter()
    result = prepared.run()
    wall_s = time.perf_counter() - wall0
    done = sampler.mark()
    sampler.stop()

    record = {
        "setup_s": SpeedSampler.normalise(origin, ready),
        "cpu_s": SpeedSampler.normalise(ready, done),
        "raw_cpu_s": done[0] - ready[0],
        "wall_s": wall_s,
        "slowdown": SpeedSampler.slowdown(ready, done),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "outputs": prepared.outputs(result),
    }
    if tracer is not None:
        record["unattributed_s"] = tracer.elapsed_s() - tracer.attributed_s()
        tracer.restore()
        record["wrapper_ns"] = tracer.wrapper_ns
        record["layers"] = {
            name: {"calls": layer.calls, "self_s": layer.self_s, "incl_s": layer.incl_s}
            for name, layer in tracer.layers.items()
        }
        record["counters"] = {name: tracer.counters(name) for name in tracer.registries}
    json.dump(record, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

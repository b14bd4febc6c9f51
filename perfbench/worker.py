"""One benchmark worker: set up a workload, run its pass, report as JSON.

Started by ``run.py`` with the spawn time on CLOCK_MONOTONIC, so that the
set-up time runs from process start (interpreter start, ``import
weylalg``, seeded input generation and warm-up) to the first timed
operation.  Modes:

* ``pass``: time every operation of the pass.
* ``probe``: time only the first operation (an extra set-up sample).
* ``trace``: install the tracer, then run the pass traced.

After each operation the worker times ``reference()`` (``spawn_reference()``
next to CLI children), and pads that list to ``REF_MIN`` entries after the
last one.

With ``--inprocess`` the cli workload calls ``weylalg.cli.main`` in this
process instead of spawning children.  The last line of stdout is the
result object.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REF_MIN = 15  # reference samples a worker takes at least (run.REF_WINDOW)


def reference():
    """A fixed stdlib loop of about 1 ms, timed after every operation.

    Its time follows the host's speed of the moment, which on a shared
    machine drifts by a third within minutes; run.py scales operation and
    set-up times by it.
    """
    acc = {}
    for i in range(1, 150):
        acc[i % 16] = Fraction(i, i + 7) * Fraction(3, i + 1) + Fraction(1, i + 2)
    return acc


def spawn_reference():
    """Start and reap ``python -c pass``, about 50 ms: the reference next to CLI children.

    A child's interpreter start, page faults and file reads follow the
    host's speed otherwise than a Python loop does.
    """
    from run import reap

    with subprocess.Popen([sys.executable, "-c", "pass"], stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL) as proc:
        reap(proc, 60)


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def _import_library():
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import weylalg

    where = os.path.dirname(os.path.abspath(weylalg.__file__))
    if os.path.dirname(where) != src:
        raise SystemExit(f"weylalg imported from {where}, not from {src}")
    return weylalg


def _inprocess_ops(ops):
    """Replace each CLI child by a call of cli.main(argv) with captured stdout."""
    from weylalg import cli

    def call(argv):
        def op():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = cli.main(argv)
            return rc == 0, {"rc": rc, "stdout": buf.getvalue().encode()}

        return op

    return [(kind, call(fn.argv)) for kind, fn in ops]


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned", type=float, required=True, help="CLOCK_MONOTONIC at spawn")
    ap.add_argument("--mode", choices=("pass", "probe", "trace"), default="pass")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--inprocess", action="store_true")
    args = ap.parse_args(argv)

    weylalg = _import_library()
    from weylalg import jsonio, scalars

    import workloads

    tracer = None
    if args.mode == "trace":
        import tracer as tracing

        tracer = tracing.install(tracing.Tracer(), [workloads])

    ops, warmup = workloads.PASSES[args.workload](args.seed, args.workdir)
    if args.inprocess:
        ops, warmup = _inprocess_ops(ops), _inprocess_ops(warmup)
    for _, fn in warmup:
        fn()
    if args.mode == "probe":
        ops = ops[:1]

    spawns = args.workload == "cli" and not args.inprocess
    ref_fn = spawn_reference if spawns else reference
    clock = time.perf_counter
    latencies, ref, hashes, failures = [], [], [], []
    first = time.clock_gettime(time.CLOCK_MONOTONIC)
    for i, (kind, fn) in enumerate(ops):
        if tracer is not None:
            tracer.on = True
        t0 = clock()
        try:
            ok, out = fn()
        except Exception as exc:  # a failed operation is counted, not fatal
            ok, out = False, {"error": f"{type(exc).__name__}: {exc}"}
        latencies.append(clock() - t0)
        if tracer is not None:
            tracer.on = False
        hashes.append(hashlib.sha256(jsonio.dumps(workloads.canonical(out)).encode()).hexdigest())
        if not ok:
            failures.append({"op": i, "kind": kind, "out": str(out)[:200]})
        ref.append(_timed(ref_fn))
    while len(ref) < REF_MIN:
        ref.append(_timed(ref_fn))

    who = resource.RUSAGE_CHILDREN if spawns else resource.RUSAGE_SELF
    result = {
        "first_op": first,
        "latencies": latencies,
        "ref": ref,
        "ref_kind": "spawn" if spawns else "loop",
        "op_hashes": hashes,
        "digest": hashlib.sha256("".join(hashes).encode()).hexdigest(),
        "failures": failures,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        "env": {
            "python": platform.python_version(),
            "kernel_backend": weylalg.KERNEL_BACKEND,
            "rational_type": scalars._RATIO.__name__,
            "dont_write_bytecode": bool(sys.flags.dont_write_bytecode),
            "pycache_prefix": sys.pycache_prefix is not None,
        },
    }
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer)
        result["spans"] = tracer.spans
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

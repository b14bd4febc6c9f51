"""Layered benchmark of weylalg: seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from anywhere inside a checkout; the library is imported from its
``src/``.  A run starts worker processes one after another (a closed loop
with one caller, no threads).  Each worker sets up the workload and runs
one whole pass of its seeded operation list, so every run sees the same
mix of operations.  Workers are started until the passes have measured
about ``--seconds`` and at least ``MIN_OPS`` operations; extra probe
workers make up ``SETUP_SAMPLES`` set-up samples.  Operation and set-up
times are scaled to a nominal host speed by a reference the worker times
after every operation (see ``_speed_scale`` and README.md).

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced pass (see tracer.py) and the tracing overhead.  Every
operation's verdict is checked, and each pass's outputs are hashed into a
digest that must equal the stored one in digests.json (where the seed has
one) and that of every other pass.  The last line of stdout is a JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("algebra-mix", "series-deep", "lattice", "cli")
MIN_OPS = 100
SETUP_SAMPLES = 9
CLI_PROBES = 7
DEADLINE_S = 170.0
REF_WINDOW = 15  # reference times in each local median (worker.REF_MIN)
# about the median times of worker.reference() ("loop") and of
# worker.spawn_reference() ("spawn") on the machine of README.md
REF_NOMINAL_S = {"loop": 0.001, "spawn": 0.05}


class BenchError(Exception):
    """The benchmark could not produce a result (not an operation failure)."""


def _monotonic():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def reap(proc, timeout):
    """Wait for ``proc`` to exit and return its exit code, or kill it and return None.

    Blocks on the child's pidfd, so the exit is seen at once:
    ``Popen.wait(timeout)`` polls with sleeps of up to 50 ms and would add
    them to every timed child.
    """
    fd = os.pidfd_open(proc.pid)
    try:
        exited = select.select([fd], [], [], timeout)[0]
    finally:
        os.close(fd)
    if not exited:
        proc.kill()
        proc.wait()
        return None
    return proc.wait()


def child_env(workdir):
    """Environment of every worker and CLI child: bytecode cached under ``workdir``.

    Imports then read compiled bytecode whatever the caller's environment
    says about writing it, so set-up and CLI times do not include
    compiling weylalg.
    """
    env = dict(os.environ, PYTHONPYCACHEPREFIX=os.path.join(workdir, "pycache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


class Run:
    def __init__(self, workload, seed, seconds, workdir):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.env = child_env(workdir)
        self.start = _monotonic()

    def left(self):
        return DEADLINE_S - (_monotonic() - self.start)

    def worker(self, mode="pass", inprocess=False):
        """Run one worker to completion and return its result dict."""
        timeout = self.left()
        if timeout <= 0:
            raise BenchError("time budget exhausted")
        spawned = _monotonic()
        argv = [
            sys.executable, os.path.join(HERE, "worker.py"),
            "--workload", self.workload, "--seed", str(self.seed),
            "--spawned", repr(spawned), "--mode", mode, "--workdir", self.workdir,
        ]
        if inprocess:
            argv.append("--inprocess")
        with subprocess.Popen(
            argv, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            start_new_session=True,
        ) as proc:
            try:
                out, err = proc.communicate(timeout=timeout)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
                raise BenchError(f"worker timed out after {timeout:.0f}s") from None
        wall = _monotonic() - spawned
        if proc.returncode != 0 or not out.strip():
            raise BenchError(f"worker failed (exit {proc.returncode}): {err.strip()[-2000:]}")
        res = json.loads(out.strip().splitlines()[-1])
        ref, nominal = res["ref"], REF_NOMINAL_S[res["ref_kind"]]
        res["scaled"] = [x * _speed_scale(ref, i, nominal) for i, x in enumerate(res["latencies"])]
        res["setup_raw_s"] = res["first_op"] - spawned
        res["setup_s"] = res["setup_raw_s"] * _speed_scale(ref, 0, nominal)
        res["wall_s"] = wall
        return res

    def passes(self, min_ops=MIN_OPS, seconds=None):
        """Workers with whole passes, as many as measure closest to ``seconds``.

        Stops once one more pass would overshoot by more than the time still
        missing, and only when at least ``min_ops`` operations are measured.
        """
        seconds = self.seconds if seconds is None else seconds
        out = []
        while True:
            res = self.worker()
            out.append(res)
            measured = sum(sum(r["scaled"]) for r in out)
            ops = sum(len(r["latencies"]) for r in out)
            if ops >= min_ops and measured + measured / len(out) / 2 >= seconds:
                return out
            if res["wall_s"] * 1.5 > self.left():
                return out

    def setup_samples(self, results):
        """The pass workers and enough probe workers to make SETUP_SAMPLES set-ups."""
        samples = list(results)
        while len(samples) < SETUP_SAMPLES and self.left() > 20:
            samples.append(self.worker("probe"))
        return samples


def _speed_scale(ref, i, nominal):
    """``nominal`` over the median reference time around operation ``i``.

    Times multiplied by it read as at the nominal host speed: a phase in
    which the host runs a third slower stretches the operations and the
    reference next to them alike.
    """
    half = REF_WINDOW // 2
    return nominal / statistics.median(ref[max(0, i - half) : i + half + 1])


def _stored_digest(workload, seed):
    path = os.path.join(HERE, "digests.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


def check_outputs(results, stored):
    """Count failed operations: wrong verdicts, and every op of a pass whose digest is off."""
    reference = stored or results[0]["digest"]
    failed, notes = 0, []
    for r in results:
        if r["digest"] != reference:
            failed += len(r["latencies"])
            notes.append(f"digest {r['digest'][:16]} != {reference[:16]}")
        else:
            failed += len(r["failures"])
        notes.extend(f"{f['kind']} #{f['op']}: {f['out']}" for f in r["failures"][:3])
    return failed, notes


def _quantile(values, q):
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def _latencies(results, key="latencies"):
    return [x for r in results for x in r[key]]


def end_to_end(results, setups, scaled=True):
    lat = _latencies(results, "scaled" if scaled else "latencies")
    return {
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": 1000 * _quantile(lat, 0.5),
        "op_p90_ms": 1000 * _quantile(lat, 0.9),
        "setup_s": statistics.median(r["setup_s" if scaled else "setup_raw_s"] for r in setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
    }


def _cli_probe(code, env):
    env = dict(env, PYTHONPATH=os.path.join(ROOT, "src"))
    t0 = _monotonic()
    with subprocess.Popen([sys.executable, "-c", code], env=env, stdin=subprocess.DEVNULL,
                          stdout=subprocess.DEVNULL) as proc:
        rc = reap(proc, 60)
    if rc != 0:
        raise BenchError(f"python -c {code!r} exited with {rc}")
    return _monotonic() - t0


def cli_layers(op_p50_ms, env):
    """Interpreter start, import and command time of one CLI child, in ms."""
    interp, imp = [], []
    for _ in range(CLI_PROBES):
        interp.append(_cli_probe("pass", env))
        imp.append(_cli_probe("import weylalg", env))
    interp_ms = 1000 * statistics.median(interp)
    import_ms = 1000 * statistics.median(imp) - interp_ms
    command_ms = op_p50_ms - interp_ms - import_ms if op_p50_ms is not None else 0.0
    return {"cli.interp_ms": interp_ms, "cli.import_ms": import_ms, "cli.command_ms": command_ms}


def measure(run):
    results = run.passes()
    setups = run.setup_samples(results)
    failed, notes = check_outputs(results, _stored_digest(run.workload, run.seed))
    first_same = len({r["op_hashes"][0] for r in setups}) == 1
    if not first_same:
        notes.append("probe outputs differ from the pass outputs")
    extra = {
        "unscaled": end_to_end(results, setups, scaled=False),
        "host_speed": REF_NOMINAL_S[setups[0]["ref_kind"]] / statistics.median(_latencies(setups, "ref")),
    }
    return results, end_to_end(results, setups), failed, first_same, notes, extra


def trace(run):
    """Untraced and traced passes in turn; per-layer metrics of the traced ones."""
    inproc = run.workload == "cli"
    plain, traced = [], []
    sub = run.passes(seconds=0, min_ops=1) if inproc else []
    # probed right after the CLI children, so that drift stays out of the differences
    cli = cli_layers(1000 * _quantile(_latencies(sub), 0.5) if sub else None, run.env)
    while True:
        plain.append(run.worker("pass", inproc))
        traced.append(run.worker("trace", inproc))
        busy = sum(sum(r["scaled"]) for r in plain + traced)
        if busy >= run.seconds or traced[-1]["wall_s"] + plain[-1]["wall_s"] > run.left() - 30:
            break
    results = sub + plain + traced
    failed, notes = check_outputs(results, _stored_digest(run.workload, run.seed))
    counts_same = all(
        {k: v for k, v in t["layers"].items() if not k.endswith("self_s")}
        == {k: v for k, v in traced[0]["layers"].items() if not k.endswith("self_s")}
        for t in traced
    )
    if not counts_same:
        notes.append("counts differ between traced passes")
    metrics = {
        k: (statistics.median(t["layers"][k] for t in traced) if k.endswith("self_s") else v)
        for k, v in traced[0]["layers"].items()
    }
    metrics.update(cli)
    metrics["trace.overhead"] = statistics.median(sum(t["scaled"]) for t in traced) / statistics.median(
        sum(p["scaled"]) for p in plain
    )
    return results, metrics, failed, counts_same, notes, {}


def _git_commit():
    # the ceiling keeps git from reporting a repository that merely contains ROOT
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], env=env, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _units(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def run_one(workload, seed, seconds, traced):
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        run = Run(workload, seed, seconds, workdir)
        run.worker("probe")  # untimed: fills the bytecode cache
        results, metrics, failed, consistent, notes, extra = (trace if traced else measure)(run)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    units = _units("per_layer" if traced else "end_to_end")
    if set(units) != set(metrics):
        raise BenchError(f"metrics {sorted(set(units) ^ set(metrics))} disagree with BENCHMARK.json")
    attempted = sum(len(r["latencies"]) for r in results)
    digests = sorted({r["digest"] for r in results})
    stored = _stored_digest(workload, seed)
    record = {
        "workload": workload,
        "seed": seed,
        "trace": int(traced),
        "passes": len(results),
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "digest": digests[0] if len(digests) == 1 else digests,
        "stored_digest": stored or "none for this seed",
        "env": dict(results[0]["env"], nproc=os.cpu_count(), seed=seed, git_commit=_git_commit()),
        "notes": notes,
        **extra,
    }
    if traced:
        # calls, total and self seconds of every span name, from the first traced pass
        record["spans"] = next(r["spans"] for r in results if "spans" in r)
    print(f"perfbench {workload} seed={seed} trace={int(traced)}: {attempted} ops in {len(results)} passes")
    for name in units:
        print(f"  {name:40s} {metrics[name]:>14.6g} {units[name]}")
    print(f"  {'error_rate':40s} {record['error_rate']:>14.6g} ({failed}/{attempted})")
    for note in notes:
        print(f"  ! {note}")
    print(json.dumps({"record": record}))
    return {
        "correct": failed == 0 and consistent,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in metrics},
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "weylalg", "__init__.py")):
        print(f"perfbench: no weylalg sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        outs = {w: run_one(w, args.seed, args.seconds, bool(args.trace)) for w in names}
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if args.workload == "all":
        final = {
            "correct": all(o["correct"] for o in outs.values()),
            "attempted": sum(o["attempted"] for o in outs.values()),
            "failed": sum(o["failed"] for o in outs.values()),
            "metrics": {f"{w}/{k}": v for w, o in outs.items() for k, v in o["metrics"].items()},
        }
    else:
        final = outs[args.workload]
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())

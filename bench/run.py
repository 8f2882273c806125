"""Certificate benchmark: one workload in one process, one JSON result line.

    python3 bench/run.py --workload solve-b --seed 1 --seconds 20 --trace 0

The run sets up (imports, inputs drawn from --seed, the oracle's lattices,
a warm-up call), then repeats whole rounds of the workload's operations
until --seconds have passed; each operation is timed by its median over the
rounds.  Every operation's output is checked against
the independent reference in `reference.py`; any failed check, and any
error other than the workload's one known failure, makes the run exit
nonzero.  The last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones.  With --trace 1 the run
traces the package's public functions during set-up and one round, and the
metrics are the per-layer ones; the spans go to bench/out/.
"""

import time

T0 = time.perf_counter()

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path

# One BLAS/OpenMP thread, before numpy loads (the benchmark command sets it too).
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import workloads
from tracer import PER_LAYER, Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_SAMPLES = 5

END_TO_END = {
    "setup_s": "s",
    "certs_per_s": "1/s",
    "ops_per_s": "1/s",
    "cert_dim_ratio": "ratio",
    "peak_rss_mb": "MB",
}


def load_package():
    """Import the package from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import entropic_doubling

    if Path(entropic_doubling.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"entropic_doubling was imported from {entropic_doubling.__file__}")
    return entropic_doubling


def set_up(workload: str, seed: int, trace: bool = False):
    ed = load_package()
    tracer = None
    if trace:
        tracer = Tracer(ed)
        tracer.install()
        tracer.enabled = True
    wl = workloads.build(workload, ed, seed)
    wl.warm_up()
    if tracer is not None:
        tracer.enabled = False
    return wl, tracer, time.perf_counter() - T0


def child_setup_seconds(args) -> float:
    """Set-up time of a fresh process, measured inside it."""
    out = subprocess.run(
        [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed), "--setup-only"],
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    return float(out.stdout.split()[-1])


class Runner:
    def __init__(self, wl, tracer):
        self.wl = wl
        self.tracer = tracer
        self.attempted = self.failed = 0
        self.times: dict[str, list[float]] = {}  # operation label -> untraced seconds per round
        self.achieved: list[tuple] = []  # (op, dim V) per certificate
        self.failures: list[str] = []
        self.round_op_s: list[float] = []
        self.trivial = 0
        self.overhead_s = 0.0

    def run(self, op, traced: bool = False) -> float | None:
        """Run and check one operation; its seconds, or None for its known failure."""
        self.attempted += 1
        if traced:
            self.tracer.enabled = True
        start = time.perf_counter()
        try:
            out = op.run()
        except Exception as exc:
            if op.expect is not None and isinstance(exc, op.expect):
                self.failed += 1
                return None
            raise
        finally:
            if traced:
                self.tracer.enabled = False
        elapsed = time.perf_counter() - start
        self.failures += [f"{op.label}: {msg}" for msg in op.check(out)]
        if op.is_cert:
            subspace = out[0]["certificate"]["subspace"]
            dim = len(subspace["basis"])
            self.achieved.append((op, dim))
            if traced and dim in (0, int(subspace["n"])):
                self.trivial += 1
        return elapsed

    def round(self, traced: bool = False) -> None:
        """One pass over the operations.  A traced pass runs each operation
        untraced and traced, alternating which goes first, so that slow drifts
        of the machine cancel out of the tracing overhead."""
        spent = 0.0
        for i, op in enumerate(self.wl.ops):
            if traced:
                order = (False, True) if i % 2 == 0 else (True, False)
                seconds = {t: self.run(op, t) for t in order}
                elapsed = seconds[False]
                if elapsed is not None:
                    self.overhead_s += seconds[True] - elapsed
            else:
                elapsed = self.run(op)
            if elapsed is not None:
                self.times.setdefault(op.label, []).append(elapsed)
                spent += elapsed
        self.round_op_s.append(spent)

    def per_s(self, certs_only: bool) -> float:
        """Operations per second of a round, each timed by its median over rounds."""
        labels = [op.label for op in self.wl.ops if op.label in self.times and (op.is_cert or not certs_only)]
        return len(labels) / sum(statistics.median(self.times[label]) for label in labels)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help="set up, print the seconds, exit")
    args = parser.parse_args()

    if args.setup_only:
        print(f"{set_up(args.workload, args.seed)[2]!r}")
        return 0

    wl, tracer, setup_s = set_up(args.workload, args.seed, bool(args.trace))
    log = sys.stderr
    print(f"# {args.workload} seed={args.seed}: set-up {setup_s:.3f} s", file=log)
    for line in wl.inputs:
        print(f"#   input: {line}", file=log)

    runner = Runner(wl, tracer)
    start = time.perf_counter()
    if tracer is not None:
        runner.round(traced=True)
    while not runner.round_op_s or time.perf_counter() - start < args.seconds:
        runner.round()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"# rounds: {len(runner.round_op_s)}, operation time per round: "
          + ", ".join(f"{s:.3f}" for s in runner.round_op_s) + " s", file=log)

    minima = {}
    for op, dim in runner.achieved:
        if op.label not in minima:
            minima[op.label] = op.min_dim()
            print(f"#   {op.label}: dim V = {dim}, exhaustive minimum {minima[op.label]}", file=log)
    if runner.failures:
        for msg in runner.failures:
            print(f"CHECK FAILED {msg}", file=log)

    if tracer is not None:
        metrics = tracer.metrics()
        metrics["pipeline.trivial_certs"] = runner.trivial
        metrics["trace.overhead_s"] = runner.overhead_s
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"trace-{args.workload}-seed{args.seed}.npz")
        units = PER_LAYER
    else:
        samples = [setup_s] + [child_setup_seconds(args) for _ in range(SETUP_SAMPLES - 1)]
        total_min = sum(minima[op.label] for op, _ in runner.achieved)
        metrics = {
            "setup_s": statistics.median(samples),
            "certs_per_s": runner.per_s(certs_only=True),
            "ops_per_s": runner.per_s(certs_only=False),
            "cert_dim_ratio": sum(dim for _, dim in runner.achieved) / total_min,
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END
    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": metrics[k], "unit": unit} for k, unit in units.items()},
    }
    for key, value in result["metrics"].items():
        print(f"#   {key} = {value['value']:.6g} {value['unit']}", file=log)
    print(f"#   attempted {runner.attempted}, failed {runner.failed}", file=log)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

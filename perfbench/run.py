"""lincontrol benchmark.

Run one workload from the root of a lincontrol checkout:

    python3 perfbench/run.py --workload are-limit --seed 1 --seconds 30 --trace 0

The load is a closed loop with one caller: each run makes whole passes
over the workload's fixed task list until --seconds have elapsed, so the
mix of operations does not depend on speed. The last line of stdout is
one JSON object with `correct`, `attempted`, `failed` and `metrics`: the
end-to-end metrics with --trace 0, the per-layer metrics (from spans
recorded around lincontrol's public functions) with --trace 1.

Other modes:

    python3 perfbench/run.py --self-test            # each oracle rejects a perturbed answer
    python3 perfbench/run.py --compare BASE CHANGE  # two directories of run results
"""

import os

# Pin BLAS to one thread before numpy loads it.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5
SAMPLE_PERIOD_S = 0.02       # wall time between two speed samples
REF_NOMINAL_S = 60e-6        # one reference unit in the reference machine's fast state
NEAREST = 8                  # fewest samples behind one task's scale


class SpeedProbe:
    """Reads the machine's speed while tasks and set-ups run.

    A shared host can run this process at two speeds a factor of two
    apart, switching every second or few. Every SAMPLE_PERIOD_S of wall
    time a SIGALRM handler times a fixed reference unit (small numpy
    products in a Python loop, the mix of lincontrol's inner loops), but
    only while a task or a set-up is being timed, so the samples fall on
    timed work in proportion to it. The unit runs once untimed first: the
    task has just pushed it out of the caches, and a cold unit would read
    how much memory the task touches, not the speed. `scales` converts
    each timed span to the speed at which the unit takes REF_NOMINAL_S.
    """

    def __init__(self):
        import numpy as np
        self._A = np.random.default_rng(0).standard_normal((8, 8))
        self._I = np.eye(8)
        self.times, self.samples = [], []
        self.active = False
        self._previous = None

    def reference(self):
        t0 = time.perf_counter()
        x = self._A
        for _ in range(25):
            x = x @ self._A * 0.1 + self._I     # contracts: entries stay O(1)
        return time.perf_counter() - t0

    def _on_alarm(self, signum, frame):
        if self.active:
            self.reference()
            self.samples.append(self.reference())
            self.times.append(time.perf_counter())

    def install(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)

    def uninstall(self):
        if self._previous is not None:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def scales(self, spans):
        """Per (start, end) of a timed span: REF_NOMINAL_S over the mean of
        the samples taken during it, or of the NEAREST samples to its middle
        when fewer fell inside."""
        import numpy as np
        t, d = np.array(self.times), np.array(self.samples)
        kept = d <= 5.0 * np.median(d)      # five times the median: preempted, not slowed
        t, d = t[kept], d[kept]
        out = []
        for t0, t1 in spans:
            lo, hi = np.searchsorted(t, (t0, t1))
            if hi - lo < NEAREST:
                lo = int(np.clip(np.searchsorted(t, 0.5 * (t0 + t1)) - NEAREST // 2,
                                 0, max(0, len(t) - NEAREST)))
                hi = lo + NEAREST
            out.append(REF_NOMINAL_S / d[lo:hi].mean())
        return out


def import_lincontrol():
    """Import lincontrol from this checkout's src/, never from elsewhere."""
    if not (SRC / "lincontrol" / "__init__.py").is_file():
        sys.exit(f"error: no lincontrol sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import lincontrol
    import lincontrol.cli
    import lincontrol.fields
    if Path(lincontrol.__file__).resolve().parent != SRC / "lincontrol":
        sys.exit(f"error: imported lincontrol from {lincontrol.__file__}, not {SRC}")
    return lincontrol


def import_afresh():
    """`import lincontrol` in a fresh interpreter, as a user's first command pays it."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-c", "import lincontrol"], cwd=ROOT, env=env, check=True)


def run(workload, seed, seconds, trace):
    import numpy as np
    import scipy

    import spans
    from workloads import WORKLOADS

    lc = import_lincontrol()
    build = WORKLOADS[workload]
    work = OUT / f"{workload}-{seed}-{os.getpid()}"
    setup = []
    probe = SpeedProbe()

    def set_up(where):
        """Import lincontrol afresh, generate the inputs, write the files."""
        shutil.rmtree(where, ignore_errors=True)
        where.mkdir(parents=True)
        probe.active = True
        t0 = time.perf_counter()
        import_afresh()
        built = build(lc, seed, where)
        setup.append((t0, time.perf_counter()))
        probe.active = False
        return built

    try:
        probe.install()
        tasks = set_up(work)

        kinds = set()
        for task in tasks:      # warm-up: lazy imports and first-call costs
            if task.kind not in kinds:
                kinds.add(task.kind)
                task.run()

        recorder = None
        quiet = contextlib.nullcontext     # lincontrol calls made by the benchmark itself
        if trace:
            recorder = spans.Recorder()
            recorder.install()
            quiet = recorder.paused

        spans_of = [[] for _ in tasks]      # per task, (start, end) of each pass
        counters = {}
        attempted = failed = passes = 0
        problems, first = [], {}
        start = time.perf_counter()
        while True:
            for i, task in enumerate(tasks):
                attempted += 1
                probe.active = True
                t0 = time.perf_counter()
                try:
                    out = task.run()
                except Exception as exc:  # a failed operation is counted, not fatal
                    failed += 1
                    print(f"# FAILED {task.name}: {type(exc).__name__}: {exc}", file=sys.stderr)
                    continue
                finally:
                    probe.active = False
                spans_of[i].append((t0, time.perf_counter()))
                with quiet():                   # outside the timed region
                    fp = task.fingerprint(out)
                    problem = None
                    if i not in first:
                        first[i] = fp
                        problem = task.check(out)
                    elif fp != first[i]:
                        problem = "output differs from the first pass"
                    if problem:
                        problems.append(f"{task.name}: {problem}")
                        print(f"# WRONG {task.name}: {problem}", file=sys.stderr)
                    for key, value in task.counters(out).items():
                        counters[key] = counters.get(key, 0) + value
            passes += 1
            # The remaining set-ups are spread over the run, so their median
            # does not hang on the machine's state during one moment.
            elapsed = time.perf_counter() - start - sum(t1 - t0 for t0, t1 in setup[1:])
            if len(setup) < 1 + (SETUP_REPEATS - 1) * min(1.0, elapsed / seconds):
                with quiet():
                    set_up(work.with_name(work.name + "-again"))
            if elapsed >= seconds:
                break
        while len(setup) < SETUP_REPEATS:
            set_up(work.with_name(work.name + "-again"))
        probe.uninstall()

        # Every set-up's and task's time, scaled to the reference speed.
        def scaled_times(spans):
            return [(t1 - t0) * k for (t0, t1), k in zip(spans, probe.scales(spans))]
        scaled = [scaled_times(sp) for sp in spans_of if sp]
        typical = [statistics.median(lat) for lat in scaled]
        metrics = {
            "setup_s": {"value": statistics.median(scaled_times(setup)), "unit": "s"},
            "tasks_per_s": {"value": sum(map(len, scaled)) / sum(map(sum, scaled)), "unit": "1/s"},
            "task_p50_ms": {"value": 1e3 * statistics.median(typical), "unit": "ms"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
        }
        if recorder:
            recorder.uninstall()
            OUT.mkdir(exist_ok=True)
            recorder.save(OUT / f"trace-{workload}-{seed}.npz")
            # traced end-to-end figures, for the tracing overhead only
            print("# traced: " + " ".join(f"{k}={v['value']:.6g}" for k, v in metrics.items()))
            metrics = layer_metrics(recorder.reduce(), counters, passes)
    finally:
        probe.uninstall()
        shutil.rmtree(work, ignore_errors=True)
        shutil.rmtree(work.with_name(work.name + "-again"), ignore_errors=True)

    print(f"# workload={workload} seed={seed} passes={passes} tasks/pass={len(tasks)} "
          f"speed_samples={len(probe.samples)} "
          f"blas_threads={BLAS_THREADS} nproc={os.cpu_count()} python={platform.python_version()} "
          f"numpy={np.__version__} scipy={scipy.__version__}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def layer_metrics(reduced, counters, passes):
    """Per-layer metrics per pass, named as in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    metrics = {}
    for entry in spec:
        label, _, what = entry["name"].rpartition(".")
        calls, self_s = reduced.get(label, (0, 0.0))
        if what == "calls":
            value = calls / passes
        elif what == "self_s":
            value = self_s / passes
        else:
            value = counters.get(entry["name"], 0) / passes
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "CHANGE"))
    args = parser.parse_args(argv)

    if args.self_test:
        import oracles
        failures = oracles.self_test()
        for line in failures:
            print(line)
        print("oracle self-test:", "FAILED" if failures else "ok")
        return 1 if failures else 0
    if args.compare:
        import compare
        return compare.main(Path(args.compare[0]), Path(args.compare[1]), ROOT / "BENCHMARK.json")
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    return run(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())

"""mwpflow benchmark: one workload, one seed, end-to-end or traced.

Run from the repository root::

    python3 bench/run.py --workload corpus --seed 1 --seconds 15 --trace 0

Every program goes through the public entry point
``mwpflow.cli.run([file, "--json", ...])`` in this process, with no
extra threads.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the lines before it print every metric with its unit, plus the git
sha, the Python version and ``nproc``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` is a
separate process that alternates untraced passes with passes traced by
``tracer.Tracer`` and reports the per-layer metrics; no end-to-end
metric is taken from it.

Every answer is checked outside the timed region against ``pins.json``
(see ``pin.py``).  A program that runs past ``CAP_S`` is recorded as a
timeout, never dropped.  Frontier programs, which exceed the cap at the
reference commit, run once per end-to-end run in one child process.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO = BENCH_DIR.parent
SRC = REPO / "src"
WORK = REPO / ".bench_work"
PINS_PATH = BENCH_DIR / "pins.json"

sys.path.insert(0, str(BENCH_DIR))
import workloads  # noqa: E402

# Per-program cap on wall time.  The slowest programs that finish at
# the reference commit take 1.5 s at the nominal host speed, up to 2.2
# times that when the host is slow and twice that again when traced;
# the frontier programs take over 30 s when it is fast.
CAP_S = 10.0
SETUP_REPEATS = 7
# The host-speed probe's chunk, and its time at the nominal speed that
# reported times are rescaled to (a 2-core VM running Python 3.11).
REF_ROUNDS = 500
REF_NOMINAL_S = 0.5e-3
TICK_S = 0.025
# Program latencies per run: at least 100, for ten beyond p90, and
# enough that p50 and p90 are steady.
MIN_SAMPLES = 150
FULL_SET = frozenset(range(7))

_cli = None


class ProgramTimeout(BaseException):
    """Raised by the cap's timer; a BaseException so no engine handler eats it."""


def import_engine():
    """Import ``mwpflow.cli`` from this checkout's ``src``, or exit with code 2."""
    global _cli
    if _cli is None:
        if not (SRC / "mwpflow" / "cli.py").is_file():
            print(f"bench: no mwpflow sources under {SRC}", file=sys.stderr)
            raise SystemExit(2)
        sys.path.insert(0, str(SRC))
        import mwpflow.cli

        _cli = mwpflow.cli
    return _cli


def invoke(path: str, flags: list[str]) -> tuple[int, str]:
    """One CLI call in process; returns the exit code and the JSON report."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = _cli.run([path, "--json", *flags])
    return rc, out.getvalue()


def _on_alarm(signum, frame):
    raise ProgramTimeout


@dataclass
class Attempt:
    name: str
    seconds: float
    status: str  # "ok", "timeout" or "crash"
    rc: int | None = None
    report: str = ""
    detail: str = ""
    scaled: float = 0.0  # seconds at the nominal host speed


def attempt(name: str, path: str, flags: list[str], run=None) -> Attempt:
    """Run one program under the cap.  ``run`` wraps the call (tracing)."""
    t0 = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, CAP_S)
        try:
            rc, report = run(invoke, path, flags) if run else invoke(path, flags)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except ProgramTimeout:
        return Attempt(name, time.perf_counter() - t0, "timeout")
    except Exception as e:  # any engine crash is a failed program, not a benchmark crash
        return Attempt(name, time.perf_counter() - t0, "crash", detail=repr(e))
    return Attempt(name, time.perf_counter() - t0, "ok", rc, report)


def attempt_in_child(name: str, path: str, flags: list[str]) -> Attempt:
    """Run one program in a single child process, killed at the cap."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = "import sys; from mwpflow.cli import run; sys.exit(run(sys.argv[1:]))"
    cmd = [sys.executable, "-c", code, path, "--json", *flags]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              timeout=CAP_S, cwd=REPO)
    except subprocess.TimeoutExpired:
        return Attempt(name, time.perf_counter() - t0, "timeout")
    elapsed = time.perf_counter() - t0
    if proc.returncode not in (0, 1):
        return Attempt(name, elapsed, "crash", detail=proc.stderr[-500:])
    return Attempt(name, elapsed, "ok", proc.returncode, proc.stdout)


@dataclass
class Checker:
    """Compares attempts with the pins; runs outside every timed region."""

    pins: dict
    renaming: workloads.Renaming
    attempted: int = 0
    failed: int = 0
    timeouts: int = 0
    digest_mismatches: set = field(default_factory=set)
    undecided: set = field(default_factory=set)
    failures: list = field(default_factory=list)

    def check(self, a: Attempt) -> None:
        self.attempted += 1
        pin = self.pins[a.name]
        if a.status == "timeout":
            self.timeouts += 1
            self.undecided.add(a.name)
            return
        problem = f"crashed: {a.detail}" if a.status == "crash" else self._problem(a, pin)
        if problem:
            self.failed += 1
            self.undecided.add(a.name)
            self.failures.append(f"{a.name}: {problem}")

    def _problem(self, a: Attempt, pin: dict) -> str:
        if a.rc != pin["exit"]:
            return f"exit code {a.rc}, pinned {pin['exit']}"
        try:
            report = json.loads(a.report)
            verdicts = {f["name"]: f["verdict"] for f in report["functions"]}
        except (ValueError, KeyError, TypeError) as e:
            return f"unreadable report: {e!r}"
        if verdicts != pin["verdicts"]:
            return f"verdicts {verdicts}, pinned {pin['verdicts']}"
        restored = self.renaming.restore(a.report)
        digest = hashlib.sha256(restored.encode()).hexdigest()
        if pin["report_sha256"] is not None and pin["report_sha256"] != digest:
            self.digest_mismatches.add(a.name)
        return ""


def reference_chunk() -> float:
    """Fixed pure-Python work of the engine's kind: tuples, sorts, sets, dicts."""
    t0 = time.perf_counter()
    table: dict[tuple[int, int], int] = {}
    for i in range(REF_ROUNDS):
        key = (i % 61, i % 53)
        table[key] = table.get(key, 0) + 1
        small = frozenset(sorted((i % 7, i % 5, i % 3)))
        if small <= FULL_SET:
            table[key] += len(small)
    return time.perf_counter() - t0


class HostClock:
    """Probe of the host's speed, used to normalize wall times.

    The host's speed drifts by up to 2x within seconds, so reported
    times are rescaled to a nominal speed.  A fixed chunk runs before and
    after each program and, while the probe is started, every ``TICK_S``
    of CPU time from a SIGPROF handler; the chunks' own time is taken out
    of the program's time.  The mean chunk time over a program, or over
    a pass, measures the host's speed during it.
    """

    def __init__(self):
        self.stamps = array("d")
        self.chunks = array("d")
        self.busy = 0.0

    def sample(self, *_signal_args) -> None:
        chunk = reference_chunk()
        self.stamps.append(time.perf_counter())
        self.chunks.append(chunk)
        self.busy += chunk

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self.sample)
        signal.setitimer(signal.ITIMER_PROF, TICK_S, TICK_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)

    def timed(self, fn, *args, **kwargs) -> tuple[object, float, float]:
        """Run fn between two chunks.

        Returns its result, its wall time less the chunks run inside it,
        and the mean chunk time from before it to after it.
        """
        first = len(self.chunks)
        self.sample()
        busy0 = self.busy
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        t1 = time.perf_counter()
        own = t1 - t0 - (self.busy - busy0)
        self.sample()
        return result, own, statistics.fmean(self.chunks[first:])

    def chunk_at(self, t0: float, t1: float) -> float:
        """Mean time of the chunks run from t0 to t1."""
        lo = bisect.bisect_left(self.stamps, t0)
        hi = bisect.bisect_right(self.stamps, t1)
        return statistics.fmean(self.chunks[lo:hi])


def measure_setup(clock: HostClock) -> list[float]:
    """Normalized wall time of fresh interpreters importing ``mwpflow.cli``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", "import mwpflow.cli"]
    times = []
    for _ in range(SETUP_REPEATS):
        proc, own, chunk = clock.timed(
            subprocess.run, cmd, env=env, cwd=REPO, capture_output=True)
        if proc.returncode != 0:
            print(proc.stderr.decode(errors="replace"), file=sys.stderr)
            raise SystemExit(2)
        times.append(own * REF_NOMINAL_S / chunk)
    return times


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "mwpflow").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_sha() -> str | None:
    if not (REPO / ".git").exists() or shutil.which("git") is None:
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO,
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def hd_quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile.

    A Beta-weighted mean of all order statistics.  Program latencies come
    in clusters, one per program, and a single order statistic jumps
    between clusters from run to run; this estimate moves smoothly.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    steps = 16  # midpoint rule on each order statistic's interval

    def density(x: float) -> float:
        return math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - log_beta)

    weights = [
        sum(density((i + (k + 0.5) / steps) / n) for k in range(steps))
        for i in range(n)
    ]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


class Workload:
    """The programs of one workload, renamed for one seed and written out."""

    def __init__(self, name: str, seed: int, trace: int):
        pins = json.loads(PINS_PATH.read_text(encoding="utf-8"))[name]
        self.name = name
        self.flags = ["--fast"] if workloads.MODE[name] == workloads.FAST else []
        base = workloads.base_programs(name)
        for p in base:
            pin = pins["programs"].get(p.name)
            if pin is None or pin["source_sha256"] != hashlib.sha256(p.source.encode()).hexdigest():
                print(f"bench: pins.json is stale for {name}/{p.name}; "
                      "rerun bench/pin.py at the reference commit", file=sys.stderr)
                raise SystemExit(2)
        renaming = workloads.Renaming.for_programs(seed, base)
        self.checker = Checker(pins["programs"], renaming)
        self.dir = WORK / f"{name}-s{seed}-t{trace}-{os.getpid()}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.paths = {}
        for p in base:
            path = self.dir / f"{p.name}.imp"
            path.write_text(renaming.apply(p.source), encoding="utf-8")
            self.paths[p.name] = str(path)
        regular = [p.name for p in base if not p.frontier]
        random.Random(seed).shuffle(regular)
        self.order = regular
        self.frontier = [p.name for p in base if p.frontier]
        self.distinct = len(base)

    def run_pass(self, clock: HostClock, run=None) -> tuple[float, float, list[Attempt]]:
        """One pass over every regular program; checks come after.

        Returns the pass's wall time, the probe's mean chunk time during
        it, and the attempts.  Chunk time is excluded throughout.
        """
        start = time.perf_counter()
        attempts = []
        for name in self.order:
            # Each CLI call starts from a collected heap, as a fresh process would.
            gc.collect()
            a, own, chunk = clock.timed(attempt, name, self.paths[name], self.flags, run)
            a.seconds, a.scaled = own, own * REF_NOMINAL_S / chunk
            attempts.append(a)
        chunk = clock.chunk_at(start, time.perf_counter())
        for a in attempts:
            self.checker.check(a)
        return sum(a.seconds for a in attempts), chunk, attempts

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


def timed_passes(w: Workload, seconds: float, clock: HostClock, min_samples: int):
    """Warm up once, then yield passes for ``seconds`` and ``min_samples`` latencies."""
    w.run_pass(clock)  # untimed; its answers are checked too
    start = time.perf_counter()
    samples = 0
    while samples < min_samples or time.perf_counter() - start < seconds:
        result = w.run_pass(clock)
        samples += len(result[2])
        yield result


def end_to_end(w: Workload, seconds: float) -> tuple[dict, dict]:
    clock = HostClock()
    setup = measure_setup(clock)
    walls, scaled, rel, latencies = [], [], [], []
    slowest = Attempt("none", 0.0, "ok")
    clock.start()
    try:
        for wall, chunk, attempts in timed_passes(w, seconds, clock, MIN_SAMPLES):
            walls.append(wall)
            scaled.append(sum(a.scaled for a in attempts))
            rel.append(wall / chunk)
            latencies.extend(a.scaled for a in attempts)
            finished = [a for a in attempts if a.status == "ok"]
            slowest = max([slowest, *finished], key=lambda a: a.seconds)
    finally:
        clock.stop()
    for name in w.frontier:
        w.checker.check(attempt_in_child(name, w.paths[name], w.flags))
    c = w.checker
    p50, p90 = hd_quantile(latencies, 0.5), hd_quantile(latencies, 0.9)
    q1, q2, q3 = quartiles(scaled)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "pass_s": (q2, "s"),
        "pass_rel": (statistics.median(rel), "ratio"),
        "program_ms_p50": (p50 * 1000, "ms"),
        "program_ms_p90": (p90 * 1000, "ms"),
        "decided_ratio": ((w.distinct - len(c.undecided)) / w.distinct, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = {
        "pass_s quartiles": f"{q1:.4f} {q2:.4f} {q3:.4f} s over {len(walls)} passes",
        "program samples": f"{len(latencies)} ({sum(s > p90 for s in latencies)} beyond p90)",
        "pass wall time": f"median {statistics.median(walls):.4f} s, not normalized",
        "slowest finishing": f"{slowest.name} {slowest.seconds:.3f} s wall (cap {CAP_S:g} s)",
        "failed_ratio": f"{c.failed / c.attempted:.6f} ratio",
        "timeouts": str(c.timeouts),
        "undecided programs": ", ".join(sorted(c.undecided)) or "none",
        "json_digest_mismatches": str(len(c.digest_mismatches)),
    }
    return metrics, notes


def traced(w: Workload, seconds: float, spans_path: Path) -> tuple[dict, dict]:
    """Alternate untraced and traced passes; the probe runs between programs only.

    Layer times are rescaled to the nominal host speed like end-to-end
    times, with the probe's mean chunk time over their pass.
    """
    from tracer import Tracer

    tracer = Tracer()
    clock = HostClock()
    plain, traced_s, per_pass = [], [], []
    for _, _, attempts in timed_passes(w, seconds, clock, 0):
        plain.append(sum(a.scaled for a in attempts))
        tracer.install()
        tracer.reset()
        try:
            _, chunk, attempts = w.run_pass(clock, run=tracer.request_span)
        finally:
            tracer.remove()
        traced_s.append(sum(a.scaled for a in attempts))
        layer = tracer.pass_metrics()
        for key, unit in UNITS.items():
            if unit == "s":
                layer[key] *= REF_NOMINAL_S / chunk
        per_pass.append(layer)
    tracer.write_spans(spans_path)
    metrics = {}
    for key, unit in UNITS.items():
        middle = statistics.median_low if unit in ("count", "bytes") else statistics.median
        metrics[key] = (middle(m[key] for m in per_pass), unit)
    metrics["cli.json_digest_mismatches"] = (len(w.checker.digest_mismatches), "count")
    metrics["trace.overhead_ratio"] = (
        statistics.median(traced_s) / statistics.median(plain), "ratio")
    layers = {k: v for k, (v, _) in metrics.items() if k in LAYER_SELF}
    total = sum(layers.values()) or 1.0
    notes = {
        "passes": f"{len(plain)} untraced, {len(traced_s)} traced",
        "layer shares": ", ".join(f"{k.split('.')[0]} {v / total:.1%}"
                                  for k, v in sorted(layers.items(), key=lambda kv: -kv[1])),
        "missing names": ", ".join(tracer.missing) or "none",
        "spans": str(spans_path.relative_to(REPO)),
    }
    return metrics, notes


LAYER_SELF = ("frontend.parse_s", "analysis.self_s", "polynomial.self_s",
              "delta_graph.self_s", "cli.self_s")

UNITS = {
    "polynomial.canon_s": "s", "polynomial.product_s": "s", "polynomial.evaluate_s": "s",
    "polynomial.closure_s": "s", "delta_graph.insert_s": "s", "delta_graph.search_s": "s",
    "delta_graph.covered_s": "s", "frontend.parse_s": "s", "analysis.self_s": "s",
    "cli.emit_s": "s", "polynomial.self_s": "s", "delta_graph.self_s": "s", "cli.self_s": "s",
    "polynomial.canon_monomials_in": "count", "polynomial.canon_monomials_out": "count",
    "polynomial.canon_keep_ratio": "ratio", "polynomial.poly_mul_calls": "count",
    "polynomial.matrix_mul_calls": "count", "polynomial.closure_rounds": "count",
    "polynomial.max_entry_monomials": "count", "analysis.assignments_scanned": "count",
    "analysis.assignments_total": "count", "analysis.clean_ratio": "ratio",
    "analysis.choices": "count", "delta_graph.inserts": "count",
    "delta_graph.vertices_final": "count", "cli.report_bytes": "bytes",
    "trace.spans": "count", "trace.missing_names": "count",
}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    import_engine()
    signal.signal(signal.SIGALRM, _on_alarm)
    w = Workload(args.workload, args.seed, args.trace)
    try:
        if args.trace:
            spans = WORK / f"spans-{args.workload}.tsv"
            metrics, notes = traced(w, args.seconds, spans)
        else:
            metrics, notes = end_to_end(w, args.seconds)
    finally:
        w.close()

    c = w.checker
    meta = {
        "workload": args.workload, "mode": workloads.MODE[args.workload],
        "seed": args.seed, "programs": w.distinct, "git_sha": git_sha(),
        "src_sha256": source_digest(), "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }
    print("meta " + json.dumps(meta, sort_keys=True))
    for key, (value, unit) in metrics.items():
        print(f"{key:34s} {value:.6g} {unit}")
    for key, text in notes.items():
        print(f"{key:34s} {text}")
    for line in c.failures[:20]:
        print(f"FAILED {line}")
    result = {
        "correct": c.failed == 0,
        "attempted": c.attempted,
        "failed": c.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

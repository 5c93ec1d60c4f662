"""Benchmark runner for the rotgp CLI.

    python3 perfbench/run.py --workload d1-desk --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --self-check

Run from a source checkout: it runs ``python -m rotgp.cli`` from
``src/`` as child processes, one at a time, with BLAS and OpenMP pinned to
one thread. Each workload builds its inputs from ``--seed`` (untimed), runs
its minimal sequence once untimed as a warm-up, then times its command
sequence cut to the minimum (``setup_s``) and at full size, in alternation,
at least three times each and as often as fits in ``--seconds``, reports
medians, and checks the outputs against the independent numerics in
``reference.py``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json; ``--trace 1``
alternates the full sequence plain and under ``tracer.py`` and reports the
per-layer metrics. The last line of stdout is the result object; the line
before it records the machine. ``--self-check`` runs every workload, both
modes and the checks (including that they catch a corrupted output) at toy
size in about a minute.
"""

import os

# Pinned before numpy is imported, and inherited by every child process.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

import tracer  # noqa: E402
import workloads as wl  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(ROOT, ".bench_runs")
TRACER = os.path.join(HERE, "tracer.py")
SPAWNER = os.path.join(HERE, "spawner.py")
SPEC = os.path.join(ROOT, "BENCHMARK.json")

MIN_REPS = 3


@dataclass
class Tally:
    """Attempted and failed operations: CLI invocations and output checks."""

    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)

    def add(self, ok: bool, note: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(note)
        return ok


@dataclass
class Rep:
    """One run of a command sequence."""

    seq: object
    out_dir: str
    wall_s: float = 0.0
    max_rss_kb: int = 0
    ok: bool = True
    span_files: list = field(default_factory=list)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


class Spawner:
    """The small process that starts every rotgp command (see spawner.py),
    so that each command's ru_maxrss is its own."""

    def __enter__(self):
        self.proc = subprocess.Popen(
            [sys.executable, SPAWNER], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT)
        return self

    def run(self, argv, log_path) -> tuple[int, int]:
        self.proc.stdin.write(json.dumps({"argv": argv, "log": log_path})
                              + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError(f"spawner exited with {self.proc.wait()}")
        reply = json.loads(reply)
        return reply["code"], reply["maxrss_kb"]

    def __exit__(self, exc_type, *_):
        if exc_type is None:
            self.proc.stdin.close()
        else:
            # the spawner kills and reaps the command it is running
            self.proc.terminate()
        self.proc.wait()
        self.proc.stdout.close()


_spawner = None


def run_command(args, log_path, spans_path=None) -> tuple[int, int]:
    """Run one rotgp command to completion; (exit code, ru_maxrss in KiB)."""
    if spans_path is None:
        argv = [sys.executable, "-m", "rotgp.cli", *args]
    else:
        argv = [sys.executable, TRACER, spans_path, "--", *args]
    return _spawner.run(argv, log_path)


def run_sequence(workload, out_dir, minimal, traced, rep_index, tally) -> Rep:
    """Run the workload's full or minimal sequence."""
    os.makedirs(out_dir)
    rep = Rep(workload.sequence(out_dir, minimal, rep_index), out_dir)
    start = time.perf_counter()
    for i, args in enumerate(rep.seq.commands):
        spans = f"{out_dir}.spans{i}.json" if traced else None
        code, rss = run_command(args, f"{out_dir}.log{i}", spans)
        rep.max_rss_kb = max(rep.max_rss_kb, rss)
        if not tally.add(code == 0, f"exit {code}: rotgp {' '.join(args)}"):
            rep.ok = False
            break
        if traced:
            rep.span_files.append(spans)
    rep.wall_s = time.perf_counter() - start
    return rep


def prepare(workload, tally) -> bool:
    for i, args in enumerate(workload.prepare()):
        code, _ = run_command(args, os.path.join(workload.inputs, f"prep{i}.log"))
        if not tally.add(code == 0, f"exit {code}: rotgp {' '.join(args)}"):
            return False
    workload.after_prepare()
    return True


def warm_up(workload, root, tally) -> bool:
    """One untimed minimal sequence: byte-compiles the sources and fills the
    file cache, so the first timed set-up is not an outlier."""
    return run_sequence(workload, os.path.join(root, "warmup"), True, False,
                        0, tally).ok


def run_checks(workload, out_dir, tally) -> None:
    for check in workload.checks(out_dir):
        tally.add(check.ok, f"check {check.name}: {check.detail}")


def repeat_for(seconds: float, min_reps: int, step) -> list:
    """Call step(i) at least min_reps times, and again while one more call,
    as long as the last one, still ends within `seconds`. The first call
    may also run one-off checks, so the last one is the better guide."""
    results = []
    start = time.perf_counter()
    last = 0.0
    while True:
        elapsed = time.perf_counter() - start
        if len(results) >= min_reps and elapsed + last > seconds:
            return results
        results.append(step(len(results)))
        last = time.perf_counter() - start - elapsed


def end_to_end(workload, root, seconds, tally, min_reps) -> dict:
    def rep(i):
        setup = run_sequence(workload, os.path.join(root, f"setup{i}"), True,
                             False, i, tally)
        full = run_sequence(workload, os.path.join(root, f"full{i}"), False,
                            False, i, tally)
        ess = 0.0
        if full.ok:
            run_checks(workload, full.out_dir, tally)
            ess = workload.ess(full.out_dir)
            tally.add(ess is not None, "no chain entry varies: ESS undefined")
        return setup, full, (ess or 0.0) / full.wall_s

    def per_unit_ms(unit):
        # each full run minus the set-up run just before it, which shares
        # its stretch of machine speed
        return statistics.median(
            1000.0 * (full.wall_s - setup.wall_s)
            / (getattr(full.seq, unit) - getattr(setup.seq, unit))
            for setup, full, _ in reps)

    reps = repeat_for(seconds, min_reps, rep)
    setups, fulls, ess_rates = zip(*reps)
    rss_kb = max(r.max_rss_kb for r in setups + fulls)
    return {
        "wall_s": (statistics.median(r.wall_s for r in fulls), "s"),
        "setup_s": (statistics.median(r.wall_s for r in setups), "s"),
        "iter_ms": (per_unit_ms("iterations"), "ms"),
        "sample_ms": (per_unit_ms("samples"), "ms"),
        "ess_per_s": (statistics.median(ess_rates), "1/s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MiB"),
        "ok_frac": (1.0 - tally.failed / tally.attempted, "fraction"),
    }


def _chain_counts(out_dir) -> tuple[int, int]:
    """(proposals, accepted) summed over the fits written under out_dir."""
    proposals = accepted = 0
    for dirpath, _, files in os.walk(out_dir):
        if "summary.json" not in files:
            continue
        with open(os.path.join(dirpath, "summary.json"), encoding="utf-8") as f:
            rates = json.load(f)["acceptance_rates"]
        n_iters = wl.fit_settings(dirpath)["chain"]["n_iters"]
        proposals += n_iters * len(rates)
        accepted += sum(round(r * n_iters) for r in rates.values())
    return proposals, accepted


def _chain_lml_calls(span_lists) -> int:
    """Likelihood calls made inside run_chain spans."""
    calls = 0
    for spans in span_lists:
        chains = [(t0, t1) for name, t0, t1, *_ in spans
                  if name == "mcmc.run_chain"]
        calls += sum(1 for name, t0, *_ in spans
                     if name == "gp.log_marginal_likelihood"
                     and any(a <= t0 <= b for a, b in chains))
    return calls


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(workload, root, seconds, tally) -> dict:
    def pair(i):
        return (run_sequence(workload, os.path.join(root, f"plain{i}"), False,
                             False, i, tally),
                run_sequence(workload, os.path.join(root, f"traced{i}"), False,
                             True, i, tally))

    pairs = repeat_for(seconds, 1, pair)
    first = pairs[0][1]
    if first.ok:
        run_checks(workload, first.out_dir, tally)
    agg = tracer.aggregate(first.span_files if first.ok else [])

    out = {}
    for target in tracer.TARGETS:
        layer = agg["layers"][target.name]
        out[f"{target.name}.calls"] = (layer.calls, "count")
        out[f"{target.name}.ms"] = (layer.ms, "ms")
        out[f"{target.name}.self_ms"] = (layer.self_ms, "ms")
        if target.reports_fails:
            out[f"{target.name}.fails"] = (layer.fails, "count")

    spans = [s for f in agg["spans"] for s in f]
    grams = agg["layers"]["kernels.gram"].calls
    jittered = sum(s[5] or 0 for s in spans if s[0] == "kernels.gram")
    chol = [s for s in spans if s[0] == "kernels.cholesky" and s[5]]
    flop = sum(s[5] ** 3 / 3.0 for s in chol)
    chol_s = sum(s[2] - s[1] for s in chol)
    proposals, accepted = _chain_counts(first.out_dir) if first.ok else (0, 0)
    chain_lml = _chain_lml_calls(agg["spans"])
    n_chains = sum(1 for s in spans if s[0] == "mcmc.run_chain")
    wasted = chain_lml - n_chains - accepted
    out.update({
        "kernels.jitter_frac": (_ratio(jittered, grams), "ratio"),
        "kernels.cholesky.gflop_per_s": (_ratio(flop, chol_s) / 1e9,
                                         "GFLOP/s-computed"),
        "mcmc.proposals": (proposals, "count"),
        "mcmc.chain_lml_calls": (chain_lml, "count"),
        "mcmc.accept_frac": (_ratio(accepted, proposals), "ratio"),
        "mcmc.lml_per_proposal": (_ratio(chain_lml, proposals), "ratio"),
        "mcmc.wasted_lml_frac": (_ratio(wasted, chain_lml), "ratio"),
        "cli.import_ms": (agg["import_ms"], "ms"),
        "trace.wall_ratio": (
            statistics.median(t.wall_s for _, t in pairs)
            / statistics.median(p.wall_s for p, _ in pairs), "ratio"),
        "trace.missing": (len(agg["missing"]), "count"),
    })
    for name in agg["missing"]:
        print(f"trace target missing: {name}")
    return out


def machine() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "blas": {k: blas.get(k) for k in ("name", "version",
                                          "openblas configuration")},
        "blas_threads": {v: os.environ[v] for v in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def measure(name, seed, seconds, trace, sizes, min_reps=MIN_REPS) -> dict:
    root = os.path.join(RUNS, f"{name}-s{seed}-t{trace}-{os.getpid()}")
    shutil.rmtree(root, ignore_errors=True)
    tally = Tally()
    try:
        workload = wl.WORKLOADS[name](root, seed, sizes)
        # the checks call into the package: import it before the timed loop,
        # whose length decides how many repetitions fit
        import rotgp.gp  # noqa: F401
        if not (prepare(workload, tally) and warm_up(workload, root, tally)):
            metrics = {}
        elif trace:
            metrics = per_layer(workload, root, seconds, tally)
        else:
            metrics = end_to_end(workload, root, seconds, tally, min_reps)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    for note in tally.notes:
        print(f"FAILED {note}")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def report(result: dict) -> None:
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    print(json.dumps({"machine": machine()}))
    print(json.dumps(result))


def self_check() -> int:
    """Every workload in both modes at toy size, plus fault injection."""
    with open(SPEC, encoding="utf-8") as f:
        spec = json.load(f)
    expected = {0: {m["name"] for m in spec["end_to_end"]},
                1: {m["name"] for m in spec["per_layer"]}}
    if set(wl.WORKLOADS) != {w["name"] for w in spec["workloads"]}:
        print("self-check: workloads differ from BENCHMARK.json")
        return 1
    bad = 0
    for name in wl.WORKLOADS:
        for trace in (0, 1):
            result = measure(name, 1, 0.0, trace, wl.TOY, min_reps=1)
            names = set(result["metrics"])
            ok = result["correct"] and names == expected[trace]
            bad += not ok
            print(f"self-check {name} trace={trace}: "
                  f"{'ok' if ok else 'FAILED'} ({result['attempted']} attempted,"
                  f" {result['failed']} failed,"
                  f" missing {sorted(expected[trace] - names)},"
                  f" extra {sorted(names - expected[trace])})")
    bad += not _faults_caught()
    probe = tracer.Tracer()
    probe.install([tracer.Target("gone.fn", "rotgp.kernels", "no_such_fn")])
    missing_ok = probe.missing == ["gone.fn"]
    bad += not missing_ok
    print("self-check vanished trace target reported as missing: "
          f"{'ok' if missing_ok else 'FAILED'}")
    print("self-check passed" if not bad else f"self-check: {bad} failures")
    return 1 if bad else 0


def _faults_caught() -> bool:
    """Corrupt one stored log_post and one mixture mean; the checks must fail."""
    ok = True
    for name, target, column in (("d1-desk", "rotational/chain.csv",
                                  "log_post"),
                                 ("d1-full-mixture", "predictions.csv", "mean")):
        root = os.path.join(RUNS, f"{name}-faults-{os.getpid()}")
        shutil.rmtree(root, ignore_errors=True)
        try:
            tally = Tally()
            workload = wl.WORKLOADS[name](root, 1, wl.TOY)
            prepare(workload, tally)
            rep = run_sequence(workload, os.path.join(root, "full"), False,
                               False, 0, tally)
            path = os.path.join(rep.out_dir, target)
            header, rows = wl.read_table(path)
            rows[0, header.index(column)] *= 1.0 + 1e-6
            with open(path, "w", encoding="utf-8") as f:
                f.write(",".join(header) + "\n")
                f.writelines(",".join(repr(float(v)) for v in row) + "\n"
                             for row in rows)
            failed = [c.name for c in workload.checks(rep.out_dir) if not c.ok]
        finally:
            shutil.rmtree(root, ignore_errors=True)
        caught = tally.failed == 0 and len(failed) == 1
        ok &= caught
        print(f"self-check fault in {name}/{target}: "
              f"{'caught by ' + failed[0] if caught else 'NOT CAUGHT'}")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "rotgp", "cli.py")):
        print(f"error: no rotgp sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if not args.self_check and (args.workload not in wl.WORKLOADS
                                or args.seed < 0):
        parser.error(f"--workload must be one of {sorted(wl.WORKLOADS)} "
                     "and --seed non-negative")
    # a terminated run still stops the spawner and the command it runs
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    global _spawner
    with Spawner() as _spawner:
        if args.self_check:
            return self_check()
        result = measure(args.workload, args.seed, args.seconds, args.trace,
                         wl.FULL)
    report(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())

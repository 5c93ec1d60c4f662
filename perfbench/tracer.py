"""Outside-in layer trace of the rotgp CLI.

Run in place of ``python -m rotgp.cli``::

    python3 tracer.py SPANS.json -- <rotgp command and flags>

It imports the package, wraps each function in ``TARGETS`` at every
attribute of a loaded ``rotgp`` module that binds it (module globals, and
dict values such as ``cli._COMMANDS``), runs the CLI, and writes the spans it
kept in memory once, when the command returns. A target that no longer
exists is listed under ``missing`` instead of failing the run, so the trace
survives refactors of the package.

``aggregate`` turns the span files of one command sequence into per-layer
counts and times; it needs only the standard library.
"""

import functools
import importlib
import json
import sys
import time
from dataclasses import dataclass
from typing import Callable


def _cholesky_order(args, kwargs, result):
    return int(len(args[0]) if args else len(kwargs["a"]))


def _gram_jittered(args, kwargs, result):
    return int(result.jitter > 0.0)


@dataclass(frozen=True)
class Target:
    """One wrapped function: layer name, defining module, attribute path
    (``Class.method`` for methods), whether its failures are reported, and an
    optional note taken from each successful call."""

    name: str
    module: str
    attr: str
    reports_fails: bool = False
    note: Callable | None = None


TARGETS = [
    Target("kernels.gram", "rotgp.kernels", "gram", True, _gram_jittered),
    Target("kernels.radial_profile", "rotgp.kernels", "radial_profile"),
    # scipy's cholesky as bound in rotgp.kernels; each failure is one
    # jitter retry inside gram
    Target("kernels.cholesky", "rotgp.kernels", "cholesky", True,
           _cholesky_order),
    Target("kernels.cross_gram", "rotgp.kernels", "cross_gram", True),
    Target("gp.log_marginal_likelihood", "rotgp.gp", "log_marginal_likelihood",
           True),
    Target("gp.predict", "rotgp.gp", "predict", True),
    Target("gp.cho_solve", "rotgp.gp", "cho_solve"),
    Target("gp.solve_triangular", "rotgp.gp", "solve_triangular"),
    Target("metric.build_metric", "rotgp.metric", "build_metric", True),
    Target("mcmc.run_chain", "rotgp.mcmc", "run_chain", True),
    Target("mcmc.log_prior", "rotgp.mcmc", "log_prior"),
    Target("mcmc.summarize", "rotgp.mcmc", "summarize", True),
    Target("mcmc.Chain.to_csv", "rotgp.mcmc", "Chain.to_csv"),
    Target("data.load_csv", "rotgp.data", "load_csv", True),
    Target("data.save_csv", "rotgp.data", "save_csv"),
    Target("data.sample_gp_outputs", "rotgp.data", "sample_gp_outputs"),
    Target("config.validate", "rotgp.config", "validate", True),
    Target("metrics.compute_metrics", "rotgp.metrics", "compute_metrics", True),
    Target("cli.cmd_generate", "rotgp.cli", "cmd_generate", True),
    Target("cli.cmd_fit", "rotgp.cli", "cmd_fit", True),
    Target("cli.cmd_predict", "rotgp.cli", "cmd_predict", True),
    Target("cli.cmd_evaluate", "rotgp.cli", "cmd_evaluate", True),
    Target("cli.cmd_experiment", "rotgp.cli", "cmd_experiment", True),
]


class Tracer:
    """Spans as [name, start, end, parent index, failed, note] rows."""

    def __init__(self):
        self.spans = []
        self.missing = []
        self._stack = []

    def wrap(self, target: Target, fn):
        spans, stack, note = self.spans, self._stack, target.note
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [target.name, clock(), 0.0, stack[-1] if stack else -1,
                    False, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[4] = True
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if note is not None:
                try:
                    span[5] = note(args, kwargs, result)
                except (AttributeError, TypeError, KeyError, IndexError):
                    pass  # a changed signature loses the note, not the run
            return result

        return traced

    def install(self, targets=TARGETS) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "rotgp" or n.startswith("rotgp."))]
        for target in targets:
            try:
                owner = importlib.import_module(target.module)
                *path, leaf = target.attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
            except (ImportError, AttributeError):
                self.missing.append(target.name)
                continue
            wrapped = self.wrap(target, original)
            if path:
                setattr(owner, leaf, wrapped)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)
                    elif isinstance(value, dict) and key != "__builtins__":
                        for k, v in list(value.items()):
                            if v is original:
                                value[k] = wrapped


def main(argv) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS.json -- <rotgp arguments>",
              file=sys.stderr)
        return 2
    spans_path, cli_args = argv[0], argv[2:]
    start = time.perf_counter()
    cli = importlib.import_module("rotgp.cli")
    import_ms = 1000.0 * (time.perf_counter() - start)
    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(cli_args)
    finally:
        with open(spans_path, "w", encoding="utf-8") as f:
            json.dump({"import_ms": import_ms, "missing": tracer.missing,
                       "spans": tracer.spans}, f)


@dataclass
class Layer:
    calls: int = 0
    ms: float = 0.0
    self_ms: float = 0.0
    fails: int = 0


def aggregate(span_files) -> dict:
    """Per-layer totals over the span files of one command sequence.

    Returns ``layers`` (name -> Layer), ``import_ms`` summed over processes,
    ``missing`` target names, and the raw ``spans`` per file for ratios that
    need span nesting.
    """
    layers = {t.name: Layer() for t in TARGETS}
    import_ms = 0.0
    missing = set()
    per_file = []
    for path in span_files:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
        import_ms += doc["import_ms"]
        missing.update(doc["missing"])
        spans = doc["spans"]
        child_ms = [0.0] * len(spans)
        for name, t0, t1, parent, failed, _ in spans:
            if parent >= 0:
                child_ms[parent] += 1000.0 * (t1 - t0)
        for i, (name, t0, t1, parent, failed, _) in enumerate(spans):
            layer = layers.setdefault(name, Layer())
            layer.calls += 1
            layer.ms += 1000.0 * (t1 - t0)
            layer.self_ms += 1000.0 * (t1 - t0) - child_ms[i]
            layer.fails += bool(failed)
        per_file.append(spans)
    return {"layers": layers, "import_ms": import_ms,
            "missing": sorted(missing), "spans": per_file}


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

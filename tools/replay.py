"""Replay an experiment over a range of seeds on one or two source trees,
and report how well its chains mix.

    python tools/replay.py --preset d1 --n-train 300 --chain 500/250/1 \\
        --seeds 100-119 PARENT_TREE [CHANGED_TREE]

A tree is a source checkout whose ``src/`` holds the ``rotgp`` package, such
as a ``git archive`` of a commit. For every seed, each tree runs
``rotgp experiment --preset P --seed S`` as a child process with one BLAS
thread, on ``n_train`` training points and ``n_train // 2`` test points, with
the chain's ``n_iters/burn_in/thin``. A seed scores the smallest
``min_metric_ess`` (``perfbench/reference.py``) over its fits; a fit whose
stored rows all hold one state scores 0.

Printed per tree: each seed's score, the median score, and the walk
fallbacks, fits whose climb ran and whose chain walks (``summary.json``'s
``start.kernel``). With two trees, also the seeds whose score went higher
and lower from the first tree to the second, and per model how many
``chain.csv`` files are byte-identical, out of all and out of those whose
subset search took as many evaluations on both trees
(``start.bfgs_evaluations``).

Outputs go to a temporary directory, removed at the end, unless ``--work``
names one to keep them in.
"""

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import reference as ref  # noqa: E402

ONE_THREAD = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                   "MKL_NUM_THREADS")}


def run_experiment(tree: str, out: str, preset: str, seed: int,
                   config: str) -> None:
    """``rotgp experiment`` from ``tree``'s sources into ``out``."""
    env = {**os.environ, **ONE_THREAD,
           "PYTHONPATH": os.path.join(os.path.abspath(tree), "src")}
    subprocess.run([sys.executable, "-m", "rotgp.cli", "experiment",
                    "--preset", preset, "--seed", str(seed), "--config",
                    config, "--out", out], env=env, check=True,
                   stdout=subprocess.DEVNULL)


def read_fits(out: str) -> dict:
    """Per model of the experiment in ``out``: its ``chain.csv`` bytes, its
    score and its ``summary.json`` ``start`` record."""
    with open(os.path.join(out, "resolved-config.json")) as f:
        models = json.load(f)["models"]
    fits = {}
    for model in models:
        with open(os.path.join(out, model, "chain.csv"), "rb") as f:
            data = f.read()
        names = data.split(b"\n", 1)[0].decode().split(",")
        rows = np.loadtxt(io.BytesIO(data), delimiter=",", skiprows=1,
                          ndmin=2)
        ess = ref.min_metric_ess(ref.kind_of(names), rows[:, 2:])
        with open(os.path.join(out, model, "summary.json")) as f:
            start = json.load(f)["start"]
        fits[model] = {"bytes": data, "ess": ess or 0.0, "start": start}
    return fits


def walk_fallbacks(fits: dict) -> int:
    return sum(fit["start"] is not None and fit["start"]["kernel"] == "walk"
               for fit in fits.values())


def subset_evaluations(fit: dict) -> int | None:
    """The subset search's evaluations; None where no climb ran."""
    return fit["start"] and fit["start"]["bfgs_evaluations"]


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--preset", default="d1")
    parser.add_argument("--n-train", type=int, default=300)
    parser.add_argument("--chain", default="500/250/1",
                        help="n_iters/burn_in/thin")
    parser.add_argument("--seeds", default="100-119",
                        help="first-last, both included")
    parser.add_argument("--work", help="keep the outputs in this directory")
    parser.add_argument("trees", nargs="+", metavar="TREE")
    args = parser.parse_args(argv)
    if len(args.trees) > 2:
        parser.error("give one or two trees")
    n_iters, burn_in, thin = (int(v) for v in args.chain.split("/"))
    first, last = (int(v) for v in args.seeds.split("-"))
    seeds = range(first, last + 1)

    with tempfile.TemporaryDirectory() as scratch:
        work = args.work or scratch
        os.makedirs(work, exist_ok=True)
        config = os.path.join(work, "config.json")
        with open(config, "w") as f:
            json.dump({"n_train": args.n_train,
                       "n_test": max(1, args.n_train // 2),
                       "chain": {"n_iters": n_iters, "burn_in": burn_in,
                                 "thin": thin}}, f)
        runs = []  # per tree, per seed: the fits
        for t, tree in enumerate(args.trees):
            runs.append([])
            for seed in seeds:
                out = os.path.join(work, f"tree{t}", f"seed{seed}")
                run_experiment(tree, out, args.preset, seed, config)
                runs[t].append(read_fits(out))

    scores = [[min(fit["ess"] for fit in fits.values()) for fits in tree_runs]
              for tree_runs in runs]
    print(f"{args.preset} n_train={args.n_train} chain={args.chain} "
          f"seeds={args.seeds}")
    for seed, row in zip(seeds, zip(*scores)):
        print(f"seed {seed}: min ESS " + " -> ".join(f"{s:.4f}" for s in row))
    for tree, tree_scores, tree_runs in zip(args.trees, scores, runs):
        print(f"{tree}: median min ESS {statistics.median(tree_scores):.2f}, "
              f"walk fallbacks {sum(map(walk_fallbacks, tree_runs))} of "
              f"{sum(map(len, tree_runs))}")
    if len(runs) == 2:
        pairs = list(zip(*scores))
        print(f"seeds higher {sum(b > a for a, b in pairs)}, "
              f"lower {sum(b < a for a, b in pairs)}, of {len(pairs)}")
        for model in runs[0][0]:
            fit_pairs = [(a[model], b[model]) for a, b in zip(*runs)]
            same = [(a, b) for a, b in fit_pairs
                    if subset_evaluations(a) == subset_evaluations(b)]
            print(f"{model}: identical chain.csv "
                  f"{sum(a['bytes'] == b['bytes'] for a, b in fit_pairs)} of "
                  f"{len(fit_pairs)}; "
                  f"{sum(a['bytes'] == b['bytes'] for a, b in same)} of the "
                  f"{len(same)} whose subset search took as many evaluations")


if __name__ == "__main__":
    main()

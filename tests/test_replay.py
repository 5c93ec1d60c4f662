import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_replay_of_one_tree_against_itself(tmp_path):
    # toy size: one seed, 24 training points, 20 iterations; the same tree
    # twice gives the same scores and the same chain bytes
    result = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "replay.py"),
         "--n-train", "24", "--chain", "20/10/1", "--seeds", "1-1",
         "--work", str(tmp_path), ROOT, ROOT],
        capture_output=True, text=True, check=True)
    lines = result.stdout.splitlines()
    assert lines[0] == "d1 n_train=24 chain=20/10/1 seeds=1-1"
    assert lines[1].startswith("seed 1: min ESS ")
    assert sum("median min ESS" in line and "walk fallbacks 0 of 3" in line
               for line in lines) == 2
    assert "seeds higher 0, lower 0, of 1" in lines
    for model in ("rotational", "spd", "ard"):
        assert (f"{model}: identical chain.csv 1 of 1; 1 of the 1 whose "
                f"subset search took as many evaluations") in lines
    assert (tmp_path / "tree1" / "seed1" / "ard" / "chain.csv").is_file()

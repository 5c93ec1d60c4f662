import numpy as np
import pytest

from rotgp.cli import (_write_comparison, _write_per_plane_table,
                       _write_predictions)
from rotgp.data import save_csv
from rotgp.gp import Dataset
from rotgp.mcmc import Chain
from rotgp.metrics import Metrics, append_ledger_row

X = np.array([[0.1, -2.0, 1e-05], [1 / 3, 0.0, 1e300]])
TRUTH = np.array([1.5, -0.25])
MEAN = np.array([1.0, 0.5])
SD = np.array([0.2, 0.125])
METRICS = Metrics(mae=0.5, rmse=0.75, cov68=1.0, cov95=1.0, cov1sigma=0.5,
                  cov2sigma=1.0, std_z=0.1, n_test=2)


def _train(tmp):
    save_csv(tmp / "train.csv", Dataset(X, TRUTH))
    return "train.csv", ("x,y,z,value\n"
                         "0.1,-2.0,1e-05,1.5\n"
                         "0.3333333333333333,0.0,1e+300,-0.25\n")


def _chain(tmp):
    Chain(kind="ard", param_names=["l_x", "l_y", "l_z"],
          iters=np.array([5, 10], dtype=np.int64), states=X,
          log_posts=np.array([-1.5, -0.1]), accepted=0,
          n_iters=10, fixed_noise_var=None).to_csv(tmp / "chain.csv")
    return "chain.csv", ("iter,log_post,l_x,l_y,l_z\n"
                         "5,-1.5,0.1,-2.0,1e-05\n"
                         "10,-0.1,0.3333333333333333,0.0,1e+300\n")


def _predictions(tmp):
    _write_predictions(tmp / "predictions.csv", X, TRUTH, MEAN, SD)
    return "predictions.csv", ("x,y,z,truth,mean,sd\n"
                               "0.1,-2.0,1e-05,1.5,1.0,0.2\n"
                               "0.3333333333333333,0.0,1e+300,-0.25,0.5,0.125\n")


def _locations_only_predictions(tmp):
    _write_predictions(tmp / "predictions.csv", X, None, MEAN, SD)
    return "predictions.csv", ("x,y,z,mean,sd\n"
                               "0.1,-2.0,1e-05,1.0,0.2\n"
                               "0.3333333333333333,0.0,1e+300,0.5,0.125\n")


def _comparison(tmp):
    rows = [{"model": name, **METRICS.to_dict()} for name in ("spd", "ard")]
    _write_comparison(str(tmp), "d1", rows)
    return "comparison.csv", (
        "model,mae,rmse,cov68,cov95,cov1sigma,cov2sigma,std_z,n_test\n"
        "spd,0.5,0.75,1.0,1.0,0.5,1.0,0.1,2\n"
        "ard,0.5,0.75,1.0,1.0,0.5,1.0,0.1,2\n")


def _per_plane(tmp):
    for model, shift in (("rotational", 0.5), ("ard", 0.25)):
        (tmp / model).mkdir()
        _write_predictions(tmp / model / "predictions.csv", X, TRUTH,
                           TRUTH + shift, SD)
    _write_per_plane_table({"out_dir": str(tmp),
                            "models": ["rotational", "ard"]}, [0.1, 1 / 3])
    return "per_plane_mae.csv", ("plane,rotational,ard\n"
                                 "0.1,0.5,0.25\n"
                                 "0.3333333333333333,0.5,0.25\n")


def _ledger(tmp):
    append_ledger_row(tmp / "ledger.csv", METRICS, "first")
    append_ledger_row(tmp / "ledger.csv", METRICS, "second")
    return "ledger.csv", (
        "label,mae,rmse,cov68,cov95,cov1sigma,cov2sigma,std_z,n_test\n"
        "first,0.5,0.75,1.0,1.0,0.5,1.0,0.1,2\n"
        "second,0.5,0.75,1.0,1.0,0.5,1.0,0.1,2\n")


@pytest.mark.parametrize("writer", [
    _train, _chain, _predictions, _locations_only_predictions, _comparison,
    _per_plane, _ledger,
], ids=["train", "chain", "predictions", "predictions-no-truth",
        "comparison", "per-plane-mae", "ledger"])
def test_writer_bytes(tmp_path, writer):
    # header line, LF line ends, shortest round-trip floats, bare integers
    # and names
    name, expected = writer(tmp_path)
    assert (tmp_path / name).read_bytes() == expected.encode()

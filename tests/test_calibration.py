import numpy as np
import pytest

from dcsim.calibration import (CollinearFeaturesError, TrainingRecord,
                               avg_error_pct, collect_training, fit_sosa)
from dcsim.policies import SoKind, SoSaModel
from oracles import predict

PAPER = SoSaModel()  # a3=0.1603, a6=0.7724, c=0.0102


def synthetic_samples(n=60, seed=0, noise=0.0, model=PAPER):
    rng = np.random.default_rng(seed)
    out = []
    for t in range(n):
        n3 = float(rng.uniform(1.0, 2.0))
        n6 = float(rng.uniform(1.0, 2.0))
        e3 = float(rng.uniform(0.5, 2.0))
        e6 = float(rng.uniform(0.5, 2.0))
        e_sa = (model.a3 * n3 * e3 + model.a6 * n6 * e6 + model.c
                + (rng.normal(0.0, noise) if noise else 0.0))
        out.append(TrainingRecord(slot=t, norm_so3=n3, e_so3=e3,
                                  norm_so6=n6, e_so6=e6, e_sa=e_sa))
    return out


def test_fit_recovers_generating_coefficients():
    model, report = fit_sosa(synthetic_samples())
    assert model.a3 == pytest.approx(PAPER.a3, abs=1e-6)
    assert model.a6 == pytest.approx(PAPER.a6, abs=1e-6)
    assert model.c == pytest.approx(PAPER.c, abs=1e-6)
    assert report.train_error_pct == pytest.approx(0.0, abs=1e-8)
    assert report.test_error_pct == pytest.approx(0.0, abs=1e-8)


def test_paper_coefficients_have_zero_error_on_own_data():
    samples = synthetic_samples(seed=3)
    predictions = predict(PAPER, samples)
    actual = [s.e_sa for s in samples]
    assert avg_error_pct(actual, predictions) == pytest.approx(0.0, abs=1e-10)


def test_constant_target_fits_intercept_only():
    rng = np.random.default_rng(1)
    samples = [TrainingRecord(slot=t, norm_so3=float(rng.uniform(1, 2)),
                              e_so3=float(rng.uniform(0.5, 2)),
                              norm_so6=float(rng.uniform(1, 2)),
                              e_so6=float(rng.uniform(0.5, 2)), e_sa=1.25)
               for t in range(40)]
    model, _ = fit_sosa(samples)
    assert model.a3 == pytest.approx(0.0, abs=1e-9)
    assert model.a6 == pytest.approx(0.0, abs=1e-9)
    assert model.c == pytest.approx(1.25, abs=1e-9)


def test_collinear_features_rejected():
    samples = [TrainingRecord(slot=t, norm_so3=1.5, e_so3=1.0, norm_so6=1.5,
                              e_so6=1.0, e_sa=1.0) for t in range(20)]
    with pytest.raises(CollinearFeaturesError):
        fit_sosa(samples)


def test_minimum_sample_count():
    with pytest.raises(ValueError):
        fit_sosa(synthetic_samples(n=5))


def test_avg_error_matches_hand_value():
    # two samples with 10 % and 20 % relative error: sqrt((100+400)/2)
    assert avg_error_pct([1.0, 1.0], [0.9, 1.2]) == pytest.approx(
        np.sqrt(250.0), rel=1e-12)


def test_chronological_split_sizes():
    _, report = fit_sosa(synthetic_samples(n=50), split=0.8)
    assert report.n_train == 40
    assert report.n_test == 10


def test_collect_training_filters_and_aligns():
    e_sa = [1.0, 0.8, 1.2, 0.7]
    v_sa = [1.5, 1.5, 1.5, 1.5]
    so_logs = {
        SoKind.SO3: ([1.1, 1.2, 1.3, 1.4], [1.0, 1.0, 1.0, 1.0]),
        SoKind.SO6: ([1.9, 1.8, 1.7, 1.6], [0.9, 0.9, 1.3, 0.9]),
    }
    records = collect_training((v_sa, e_sa), so_logs)
    # kept only slots where the annealer beat the best BFD energy:
    # slot 1 (0.8 < 0.9) and slot 3 (0.7 < 0.9)
    assert [r.slot for r in records] == [1, 3]
    assert records[0].norm_so3 == 1.2
    assert records[0].e_so6 == 0.9


def test_collect_training_warns_when_empty():
    e_sa = [1.0, 1.0]
    so_logs = {SoKind.SO3: ([1.5, 1.5], [0.9, 0.9]),
               SoKind.SO6: ([1.5, 1.5], [0.8, 0.8])}
    with pytest.warns(UserWarning, match="never improved"):
        records = collect_training((None, e_sa), so_logs)
    assert records == []


def test_collect_training_rejects_misaligned_logs():
    with pytest.raises(ValueError, match="different slot grids"):
        collect_training((None, [1.0, 1.0]),
                         {SoKind.SO3: ([1.5], [0.9]),
                          SoKind.SO6: ([1.5, 1.5], [0.8, 0.8])})


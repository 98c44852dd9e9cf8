"""Least-squares pipeline re-deriving the composite consolidation model from
paired annealer/BFD run logs."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .policies import SoKind, SoSaModel


class CollinearFeaturesError(ValueError):
    """The regression design matrix is rank deficient."""


@dataclass(frozen=True)
class TrainingRecord:
    slot: int
    norm_so3: float
    e_so3: float     # kWh, whole-fleet slot energy of the SO3 run
    norm_so6: float
    e_so6: float
    e_sa: float      # kWh, whole-fleet slot energy of the annealer run


@dataclass
class FitReport:
    train_error_pct: float
    test_error_pct: float
    n_train: int
    n_test: int


def avg_error_pct(actual, predicted) -> float:
    """RMS of per-sample relative errors, in percent."""
    actual = np.asarray(actual, dtype=float)
    predicted = np.asarray(predicted, dtype=float)
    rel = 100.0 * np.abs(actual - predicted) / actual
    return float(np.sqrt((rel ** 2).mean()))


def collect_training(sa_log, so_logs: dict[SoKind, tuple]) -> list[TrainingRecord]:
    """Align per-slot logs and keep slots where the annealer beat every SO run.

    ``sa_log`` is a (values, energies) pair from the annealer run and each
    ``so_logs[kind]`` the same for a BFD run; values are per-slot mean
    normalized consolidation values, energies the whole-fleet slot energies
    in kWh.  All logs must share the slot grid.
    """
    _, e_sa = sa_log
    v3, e3 = so_logs[SoKind.SO3]
    v6, e6 = so_logs[SoKind.SO6]
    n = len(e_sa)
    for series in (v3, e3, v6, e6):
        if len(series) != n:
            raise ValueError("run logs cover different slot grids")
    records = []
    for t in range(n):
        best_so = min(log[1][t] for log in so_logs.values())
        if e_sa[t] < best_so:
            records.append(TrainingRecord(slot=t, norm_so3=v3[t], e_so3=e3[t],
                                          norm_so6=v6[t], e_so6=e6[t],
                                          e_sa=e_sa[t]))
    if not records:
        warnings.warn("annealer never improved on the BFD runs; empty training set")
    return records


def fit_sosa(samples: list[TrainingRecord], split: float = 0.8) -> tuple[SoSaModel, FitReport]:
    """Fit e_sa ~ a3 * |so3| * e_so3 + a6 * |so6| * e_so6 + c.

    Chronological train/test split (the leading ``split`` fraction trains).
    Raises :class:`CollinearFeaturesError` when the features are collinear.
    """
    if len(samples) < 10:
        raise ValueError(f"need at least 10 samples, got {len(samples)}")
    x1 = np.array([s.norm_so3 * s.e_so3 for s in samples])
    x2 = np.array([s.norm_so6 * s.e_so6 for s in samples])
    y = np.array([s.e_sa for s in samples])

    n_train = max(1, int(round(split * len(samples))))
    design = np.column_stack([x1, x2, np.ones_like(x1)])
    train = design[:n_train]
    if np.linalg.matrix_rank(train) < 3:
        raise CollinearFeaturesError("features are collinear on the training split")
    coef, *_ = np.linalg.lstsq(train, y[:n_train], rcond=None)
    model = SoSaModel(a3=float(coef[0]), a6=float(coef[1]), c=float(coef[2]))

    pred = design @ coef
    train_err = avg_error_pct(y[:n_train], pred[:n_train])
    if n_train < len(samples):
        test_err = avg_error_pct(y[n_train:], pred[n_train:])
    else:
        test_err = train_err
    return model, FitReport(train_error_pct=train_err, test_error_pct=test_err,
                            n_train=n_train, n_test=len(samples) - n_train)


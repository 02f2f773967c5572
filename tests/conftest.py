"""Shared fixtures and independent numerical oracles for the test suite."""

import contextlib
import math
import os
import signal
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from twpacorr import (
    AcquisitionConfig,
    EmissionBandModel,
    TwpaParams,
    WindowSpec,
    acquisition,
)

F_PUMP = 6.331e9
F_IDLER = 6.481e9

SRC = Path(__file__).resolve().parent.parent / "src"


def source_env() -> dict:
    """This environment, with the package sources first on PYTHONPATH, for subprocesses."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def gaussian_envelope(t: float, tau: float) -> float:
    """Reference gaussian envelope written out longhand, for oracle use."""
    beta = math.exp(-2.0) / (1.0 - math.exp(-2.0))
    return (1.0 + beta) * math.exp(-2.0 * (2.0 * t / tau - 1.0) ** 2) - beta


def overlap_kernel(window: WindowSpec, detunings) -> np.ndarray:
    """Normalized window-overlap kernel by adaptive quadrature.

    Integrates E(t)^2 cos(2 pi df (t - tau/2)) over the window and divides by
    the zero-detuning value. Deliberately avoids the package's discrete
    envelope/demodulation machinery so it stays an independent oracle.
    """
    tau = window.tau
    if window.shape == "rectangular":
        envelope = lambda t: 1.0
    else:
        envelope = lambda t: gaussian_envelope(t, tau)
    values = []
    for df in np.asarray(detunings, dtype=float):
        integral, _ = quad(
            lambda t: envelope(t) ** 2 * math.cos(2.0 * math.pi * df * (t - tau / 2.0)),
            0.0,
            tau,
            limit=400,
        )
        values.append(integral)
    norm, _ = quad(lambda t: envelope(t) ** 2, 0.0, tau, limit=400)
    return np.array(values) / norm


def gaussian_shots(cov, n: int, seed: int) -> np.ndarray:
    """``n`` zero-mean (n, 4) quadrature samples with covariance ``cov``."""
    return np.random.default_rng(seed).standard_normal((n, 4)) @ np.linalg.cholesky(cov).T


def gaussian_standard_errors(matrix, n: int) -> np.ndarray:
    """Gaussian-theory entrywise SE of an n-shot sample covariance estimating ``matrix``.

    ``SE(sigma_ij) = sqrt((sigma_ii sigma_jj + sigma_ij^2) / (n - 1))``.
    """
    diag = np.diag(matrix)
    return np.sqrt((np.outer(diag, diag) + matrix**2) / (n - 1))


def make_band(twpa=None, halfwidth=2.7e6, spacing=60e3) -> EmissionBandModel:
    if twpa is None:
        twpa = TwpaParams(2.0, 2.0, 0.0)
    return EmissionBandModel(
        per_bin_params=twpa, band_halfwidth=halfwidth, bin_spacing=spacing
    )


def make_acquisition(
    window=None,
    n_shots=2000,
    seed=1234,
    chain_gain=1.0,
    added_noise=0.0,
    **kwargs,
) -> AcquisitionConfig:
    if window is None:
        window = WindowSpec("rectangular", 6e-6)
    return AcquisitionConfig(
        window=window,
        n_shots=n_shots,
        seed=seed,
        chain_gain_signal=chain_gain,
        chain_gain_idler=chain_gain,
        added_noise_quanta=added_noise,
        **kwargs,
    )


@pytest.fixture(scope="session")
def ideal_experiment():
    """One noiseless matched-detuning experiment at G=2, reused across tests."""
    from twpacorr import run_experiment

    band = make_band()
    acq = make_acquisition(n_shots=4000, seed=7001)
    (data,) = run_experiment(0.0, band, acq)
    return data


@pytest.fixture
def workers(monkeypatch):
    """A worker pool of its own for the test, stopped after it."""
    pool = acquisition._Workers()
    monkeypatch.setattr(acquisition, "_WORKERS", pool)
    yield pool
    pool.close()


@contextlib.contextmanager
def deadline(seconds: int):
    """Raise TimeoutError in the block once it has run ``seconds``."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)

"""The separable calibration fits against scipy's least_squares.

For targets drawn from the model family itself, with up to 20% noise, each
fit's sum of squared residuals must be no worse than scipy's from the
starting point and bounds the fit used before it stopped depending on scipy.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oclbudget.simulator import _fit_latency, _fit_stability

optimize = pytest.importorskip("scipy.optimize")

N_SAMPLES = 180_000


def _latency_residual(batch, observed, c, knee):
    pred = N_SAMPLES * c * np.maximum(1.0, knee / batch)
    return (pred - observed) / observed


def _stability_residual(buffer, observed, s_max, r0):
    return s_max * (1.0 - np.exp(-buffer / r0)) - observed


def _no_worse(ours, reference):
    return ours <= reference * (1.0 + 1e-9) + 1e-18


@st.composite
def latency_targets(draw):
    exponents = draw(st.lists(st.integers(0, 10), min_size=3, max_size=7, unique=True))
    batch = np.array(sorted(2.0**e for e in exponents))
    c = draw(st.floats(1e-5, 1e-2))
    knee = draw(st.floats(1.0, 2048.0))
    noise = draw(st.floats(0.0, 0.2))
    jitter = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=len(batch), max_size=len(batch))))
    observed = N_SAMPLES * c * np.maximum(1.0, knee / batch) * (1.0 + noise * jitter)
    return batch, observed


@st.composite
def stability_targets(draw):
    buffer = np.array(
        sorted(draw(st.lists(st.integers(1, 100_000), min_size=3, max_size=6, unique=True))),
        dtype=float,
    )
    s_max = draw(st.floats(0.05, 1.0))
    r0 = draw(st.floats(1.0, 1e5))
    noise = draw(st.floats(0.0, 0.2))
    jitter = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=len(buffer), max_size=len(buffer))))
    clean = s_max * (1.0 - np.exp(-buffer / r0))
    observed = np.clip(clean * (1.0 + noise * jitter), 0.0, 1.0)
    return buffer, observed


@settings(max_examples=150, deadline=None)
@given(latency_targets())
def test_latency_fit_no_worse_than_scipy(target):
    batch, observed = target
    c, knee = _fit_latency(N_SAMPLES, batch, observed)
    assert c >= 1e-12 and 1.0 <= knee <= 16.0 * batch.max()

    ref = optimize.least_squares(
        lambda p: _latency_residual(batch, observed, *p),
        x0=[observed.min() / N_SAMPLES, float(batch[np.argmin(observed)])],
        bounds=([1e-12, 1.0], [np.inf, 16.0 * batch.max()]),
    )
    ours = float(np.sum(_latency_residual(batch, observed, c, knee) ** 2))
    theirs = float(np.sum(_latency_residual(batch, observed, *ref.x) ** 2))
    assert _no_worse(ours, theirs), (ours, theirs, (c, knee), tuple(ref.x))


@settings(max_examples=150, deadline=None)
@given(stability_targets())
def test_stability_fit_no_worse_than_scipy(target):
    buffer, observed = target
    s_max, r0 = _fit_stability(buffer, observed)
    assert 1e-6 <= s_max <= 1.0 and 1.0 <= r0 <= 1e9

    ref = optimize.least_squares(
        lambda p: _stability_residual(buffer, observed, *p),
        x0=[max(observed.max(), 0.5), float(np.median(buffer))],
        bounds=([1e-6, 1.0], [1.0, 1e9]),
    )
    ours = float(np.sum(_stability_residual(buffer, observed, s_max, r0) ** 2))
    theirs = float(np.sum(_stability_residual(buffer, observed, *ref.x) ** 2))
    assert _no_worse(ours, theirs), (ours, theirs, (s_max, r0), tuple(ref.x))

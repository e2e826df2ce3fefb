"""A kernel that raises inside :func:`repro.devtools.fuzz.fuzz`.

The fuzzer must report a raising case as a ``crash`` divergence carrying
the exception's repr and go on with the rest of its budget, so one bad
kernel call cannot hide every divergence the later cases would show.
"""

from __future__ import annotations

from unittest import mock

from repro.devtools.fuzz import fuzz
from repro.kernels import slots


def test_raising_kernel_is_a_crash_divergence_and_the_run_goes_on():
    original = slots.segment_hits
    calls = []

    def flaky(column, period, num_periods, letter_ids):
        calls.append(period)
        if len(calls) % 2:
            raise RuntimeError(f"injected at period {period}")
        return original(column, period, num_periods, letter_ids)

    with mock.patch.object(slots, "segment_hits", flaky):
        report = fuzz(20, seed=6)
    assert report.executed == 20
    crashes = [d for d in report.divergences if d.stage == "crash"]
    assert crashes
    assert all(
        d.detail.startswith("RuntimeError('injected at period ") for d in crashes
    )
    # Every other divergence would be a real disagreement; the calls that
    # did not raise agree with the oracles.
    assert all(d.stage == "crash" for d in report.divergences)
    assert report.to_json()["divergences"][0]["stage"] == "crash"

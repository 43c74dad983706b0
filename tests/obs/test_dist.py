"""The live sweep progress line (:mod:`repro.obs.progress`)."""

from __future__ import annotations

import io

from repro.obs.progress import SweepProgress


class FakeClock:
    def __init__(self, start: float = 1000.0, step: float = 0.5) -> None:
        self.now = start
        self.step = step

    def __call__(self) -> float:
        value = self.now
        self.now += self.step
        return value


POINTS = [
    ("Sync-1", "2B2S", "linux"),
    ("Sync-1", "2B2S", "colab"),
    ("NSync-1", "2B2S", "linux"),
    ("NSync-1", "2B2S", "colab"),
]


class TestSweepProgress:
    def make(self, total=4, **kwargs):
        stream = io.StringIO()
        clock = FakeClock(start=0.0, step=1.0)
        kwargs.setdefault("min_interval_s", 0.0)
        return SweepProgress(total, stream=stream, clock=clock, **kwargs), stream

    def test_line_reports_done_eta_and_stragglers(self):
        progress, _stream = self.make()
        line = progress.line(2, stragglers=tuple(POINTS[:3]))
        assert "sweep 2/4" in line
        assert "eta" in line
        assert "in flight: Sync-1/2B2S/linux, Sync-1/2B2S/colab +1" in line

    def test_update_writes_carriage_return_line(self):
        progress, stream = self.make()
        progress.update(1)
        assert stream.getvalue().startswith("\r")
        assert "sweep 1/4" in stream.getvalue()

    def test_throttle_suppresses_rapid_updates(self):
        progress, stream = self.make(min_interval_s=10.0)
        progress.update(1)
        progress.update(2)  # within the throttle window -> suppressed
        assert "sweep 2/4" not in stream.getvalue()
        progress.update(3, force=True)
        assert "sweep 3/4" in stream.getvalue()

    def test_finish_emits_final_line_and_newline(self):
        progress, stream = self.make()
        progress.finish()
        assert stream.getvalue().endswith("\n")
        assert "sweep 4/4 (100%)" in stream.getvalue()

    def test_disabled_progress_never_writes(self):
        progress, stream = self.make(enabled=False)
        progress.update(1, force=True)
        progress.finish()
        assert stream.getvalue() == ""


class TestProgressEtaGuard:
    def test_zero_elapsed_renders_eta_placeholder(self):
        stream = io.StringIO()
        progress = SweepProgress(
            4, stream=stream, clock=FakeClock(start=0.0, step=0.0),
            min_interval_s=0.0,
        )
        line = progress.line(2)
        assert "eta --" in line
        assert "eta 0.0s" not in line

    def test_nonzero_elapsed_still_extrapolates(self):
        stream = io.StringIO()
        progress = SweepProgress(
            4, stream=stream, clock=FakeClock(start=0.0, step=1.0),
            min_interval_s=0.0,
        )
        assert "eta 1.0s" in progress.line(2)

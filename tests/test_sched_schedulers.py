"""Unit tests for FDS and mobility-path scheduling."""

import pytest

from repro.dfg import DFGBuilder, UnitClass
from repro.errors import ScheduleError
from repro.sched import (check_precedence, fds_schedule, frames,
                         mobility_path_schedule, peak_usage, schedule_length)


@pytest.fixture
def wide_dfg():
    """Four independent mults feeding a reduction tree of adds."""
    b = DFGBuilder("wide")
    b.inputs("a", "b", "c", "d", "e", "f", "g", "h")
    b.op("M1", "*", "p", "a", "b")
    b.op("M2", "*", "q", "c", "d")
    b.op("M3", "*", "r", "e", "f")
    b.op("M4", "*", "s", "g", "h")
    b.op("A1", "+", "t", "p", "q")
    b.op("A2", "+", "u", "r", "s")
    b.op("A3", "+", "v", "t", "u")
    b.outputs("v")
    return b.build()


class TestFrames:
    def test_frames_match_asap_alap(self, chain_dfg):
        f = frames(chain_dfg, horizon=3)
        assert f == {"N1": (0, 0), "N2": (1, 1), "N3": (2, 2)}

    def test_fixed_narrows_neighbours(self, wide_dfg):
        free = frames(wide_dfg, horizon=4)
        assert free["M1"] == (0, 1)
        fixed = frames(wide_dfg, horizon=4, fixed={"A1": 1})
        assert fixed["M1"] == (0, 0)

    def test_fixed_out_of_frame_rejected(self, chain_dfg):
        with pytest.raises(ScheduleError):
            frames(chain_dfg, horizon=3, fixed={"N2": 2})


class TestFDS:
    def test_valid_schedule(self, wide_dfg):
        steps = fds_schedule(wide_dfg)
        check_precedence(wide_dfg, steps)

    def test_respects_horizon(self, wide_dfg):
        steps = fds_schedule(wide_dfg, horizon=4)
        assert schedule_length(steps) <= 4

    def test_balances_multipliers(self, wide_dfg):
        # Critical path is 3; ASAP would put all 4 mults in step 0.
        # With horizon 4 FDS should spread them to at most 2 per step.
        steps = fds_schedule(wide_dfg, horizon=4)
        peaks = peak_usage(wide_dfg, steps)
        assert peaks[UnitClass.MULTIPLIER] <= 2

    def test_chain_is_fixed(self, chain_dfg):
        assert fds_schedule(chain_dfg) == {"N1": 0, "N2": 1, "N3": 2}

    def test_deterministic(self, wide_dfg):
        assert fds_schedule(wide_dfg, 4) == fds_schedule(wide_dfg, 4)


class TestMobilityPath:
    def test_valid_schedule(self, wide_dfg):
        steps = mobility_path_schedule(wide_dfg, horizon=4)
        check_precedence(wide_dfg, steps)

    def test_no_extra_units_vs_fds(self, wide_dfg):
        fds = peak_usage(wide_dfg, fds_schedule(wide_dfg, 4))
        ours = peak_usage(wide_dfg, mobility_path_schedule(wide_dfg, 4))
        assert sum(ours.values()) <= sum(fds.values())

    def test_shortens_lifetime_spans(self, wide_dfg):
        from repro.dfg import variable_lifetimes
        fds = fds_schedule(wide_dfg, 5)
        mps = mobility_path_schedule(wide_dfg, 5)
        span = lambda s: sum(lt.span for lt in
                             variable_lifetimes(wide_dfg, s).values())
        assert span(mps) <= span(fds)

    def test_deterministic(self, wide_dfg):
        assert (mobility_path_schedule(wide_dfg, 4)
                == mobility_path_schedule(wide_dfg, 4))

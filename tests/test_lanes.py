"""DSP lanes (`repro.dsp.lanes`): every byte is the same at any lane count.

The lane count follows the CPUs a process may use, so these tests pin it
by substituting the CPU count the lanes module sees: two lanes run on
any host, including a one-CPU one.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import sys
import threading

import pytest

from repro.baselines.cc_detector import ActionCCRanging
from repro.core.config import ProtocolConfig
from repro.dsp import lanes
from repro.dsp.backend import NumpyBackend, use_backend
from repro.eval.engine import (
    TrialEngine,
    TrialSpec,
    build_trial_session,
    run_cell_spec,
)
from repro.service import AuthService, RangingRequest, encode_message
from repro.sim.pipeline import (
    BatchedSessionRunner,
    detect,
    detect_batch,
    negotiate,
    render,
    render_call_counts,
    reset_render_call_counts,
    schedule,
)

SPEC = TrialSpec(environment="office", distance_m=1.0, n_trials=5, seed=3)
CC_SPEC = TrialSpec(
    environment="office",
    distance_m=1.0,
    n_trials=2,
    seed=5,
    engine=ActionCCRanging(ProtocolConfig()),
)


@pytest.fixture()
def cpus(monkeypatch):
    """Set the CPU count the lanes see, as a process of a 1-process tier."""
    monkeypatch.setattr(lanes, "_processes", 1)

    def set_cpus(count: int) -> None:
        monkeypatch.setattr(lanes, "_cpus", lambda: count)

    return set_cpus


class _ThreadRecordingBackend(NumpyBackend):
    """The numpy reference, noting which threads ran an ``rfft``."""

    def __init__(self) -> None:
        super().__init__()
        self.threads: set[str] = set()

    def rfft(self, batch, axis=-1):
        self.threads.add(threading.current_thread().name)
        return super().rfft(batch, axis=axis)


def test_lane_count_is_the_process_share_of_its_cpus(cpus):
    cpus(2)
    assert lanes.lane_count() == 2
    lanes.share_cpus(2)
    assert lanes.lane_count() == 1
    cpus(4)
    assert lanes.lane_count() == 2
    cpus(1)
    assert lanes.lane_count() == 1
    with pytest.raises(ValueError):
        lanes.share_cpus(0)


def test_map_lanes_keeps_input_order(cpus):
    cpus(2)
    assert lanes.map_lanes(lambda x: x * x, range(7)) == [
        x * x for x in range(7)
    ]
    assert lanes.map_lanes(str, []) == []


def test_map_lanes_runs_every_item_once_under_thread_churn(cpus):
    # More lanes than this host has CPUs, and a thread switch after
    # nearly every bytecode: a lost claim would run an item twice or
    # leave a result unset.
    cpus(8)
    calls: list[int] = []

    def square(x: int) -> int:
        calls.append(x)
        return x * x

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            calls.clear()
            assert lanes.map_lanes(square, range(200)) == [
                x * x for x in range(200)
            ]
            assert sorted(calls) == list(range(200))
    finally:
        sys.setswitchinterval(interval)


def test_map_lanes_raises_what_an_item_raised(cpus):
    cpus(2)

    def fail_on_three(x):
        if x == 3:
            raise KeyError(x)
        return x

    with pytest.raises(KeyError):
        lanes.map_lanes(fail_on_three, range(6))


@pytest.mark.parametrize("batch_size", [1, 16])
def test_cells_are_byte_identical_at_one_and_two_lanes(cpus, batch_size):
    cpus(1)
    one = run_cell_spec(SPEC, batch_size)
    cpus(2)
    recording = _ThreadRecordingBackend()
    with use_backend(recording):
        two = run_cell_spec(SPEC, batch_size)
    assert any(name.startswith("repro-lane") for name in recording.threads)
    # repr prints every float exactly: equal reprs are equal bits.
    assert repr(two.outcomes) == repr(one.outcomes)


def test_served_decisions_are_byte_identical_at_one_and_two_lanes(cpus):
    request = RangingRequest(
        request_id="lanes", environment="quiet_lab", distance_m=0.8, seed=3,
        rounds=3,
    )

    async def serve() -> list[bytes]:
        async with AuthService() as service:
            return [
                encode_message(message)
                async for message in service.handle_request(request)
            ]

    cpus(1)
    one = asyncio.run(serve())
    cpus(2)
    assert asyncio.run(serve()) == one
    assert len(one) == request.rounds + 1


def test_render_call_counts_stay_exact_on_lanes(cpus):
    cpus(2)
    sessions = [build_trial_session(SPEC, trial) for trial in range(5)]
    reset_render_call_counts()
    BatchedSessionRunner(16).run(sessions)
    assert render_call_counts() == {"noise_plans": 5, "arrival_captures": 10}


def test_detect_batch_on_lanes_matches_per_entry_detect(cpus):
    cpus(2)
    entries = []
    for spec in (SPEC, CC_SPEC):
        for trial in range(2):
            session = build_trial_session(spec, trial)
            ctx, rng = session.context, session.rng
            negotiation = negotiate(ctx, rng)
            recordings = render(ctx, schedule(ctx, negotiation, rng), rng)
            entries.append((ctx, negotiation, recordings))
    assert type(entries[-1][0].action) is ActionCCRanging
    assert detect_batch(entries) == [detect(*entry) for entry in entries]


def _worker_lanes(_item) -> int:
    return lanes.lane_count()


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the workers must inherit the substituted CPU count",
)
@pytest.mark.parametrize("host_cpus,worker_lanes", [(2, 1), (4, 2)])
def test_forked_engine_workers_take_their_share_of_the_lanes(
    cpus, host_cpus, worker_lanes
):
    """Workers of ``jobs=2`` forked from a parent whose lanes already ran.

    The parent runs its rounds on 2 lanes first.  With 4 CPUs each
    worker gets 2 lanes as well and runs its cells on them.
    """
    cpus(2)
    specs = [SPEC, TrialSpec(environment="home", distance_m=0.5, n_trials=3, seed=4)]
    expected = [run_cell_spec(spec).outcomes for spec in specs]
    cpus(host_cpus)
    with TrialEngine(jobs=2) as engine:
        assert engine.map_tasks(_worker_lanes, range(4)) == [worker_lanes] * 4
        cells = engine.map_tasks(run_cell_spec, specs)
    assert [repr(cell.outcomes) for cell in cells] == [
        repr(outcomes) for outcomes in expected
    ]

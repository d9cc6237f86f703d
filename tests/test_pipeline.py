"""Equivalence tests for the staged/batched ranging pipeline.

The contract under test: a lone round (``RangingSession.run``, the
runner at B = 1), :class:`BatchedSessionRunner` at any batch size, and
the pre-refactor monolithic loop (:func:`run_monolithic`) produce
**bit-identical** :class:`RangingOutcome`\\ s — and therefore bit-identical
experiment tables — for every scenario.
"""

from dataclasses import dataclass

import numpy as np
import pytest

from repro.attacks.all_frequency import AllFrequencySpoofAttack
from repro.baselines.cc_detector import ActionCCRanging
from repro.core.config import ProtocolConfig
from repro.core.detection import FrequencyDetector
from repro.core.ranging import RangingOutcome, RangingStatus
from repro.core.signal_construction import signal_from_indices
from repro.corpus import mini_environment, mini_protocol_config
from repro.dsp.backend import NumpyBackend, use_backend
from repro.eval.engine import (
    AUTH,
    VOUCH,
    MeasurementCache,
    TrialSpec,
    build_pair_world,
)
from repro.eval.engine.cache import is_deeply_immutable
from repro.eval.trials import ConcurrentUsersInterference
from repro.sim.geometry import Point
from repro.sim.pipeline import (
    BatchedSessionRunner,
    PreparedRound,
    detect,
    detect_batch,
    prepare,
    render_arrivals,
    render_call_counts,
    reset_render_call_counts,
    run_monolithic,
)


def build_sessions(spec: TrialSpec):
    """The session list run_cell_spec would execute for ``spec``."""
    sessions = []
    for trial in range(spec.n_trials):
        world = build_pair_world(
            spec.environment,
            spec.distance_m,
            spec.trial_seed(trial),
            config=spec.config,
            room=spec.room,
        )
        providers = ()
        if spec.interference_factory is not None:
            providers = spec.interference_factory(
                world, world.rngs.generator("interference")
            )
        sessions.append(
            world.ranging_session(AUTH, VOUCH, providers, engine=spec.engine)
        )
    return sessions


@dataclass(frozen=True)
class SpoofInterference:
    """Security-scene factory: an all-frequency spoofer blankets the band.

    Mirrors the §V attack setup — the heaviest interference the
    experiments produce — so the batched-equals-serial contract is
    exercised on captures whose arrival lists are dominated by attacker
    playbacks.
    """

    def __call__(self, world, rng):
        from repro.sim.geometry import Point

        attacker = world.add_device("attacker", Point(0.3, 0.0))
        attack = AllFrequencySpoofAttack(
            world=world,
            auth_name=AUTH,
            vouch_name=VOUCH,
            attacker=attacker,
        )
        return [attack.playbacks]


PLAIN = TrialSpec(environment="office", distance_m=1.0, n_trials=7, seed=3)
MULTIUSER = TrialSpec(
    environment="office",
    distance_m=1.5,
    n_trials=5,
    seed=4,
    interference_factory=ConcurrentUsersInterference(2),
)
CC_ENGINE = TrialSpec(
    environment="office",
    distance_m=1.0,
    n_trials=4,
    seed=5,
    engine=ActionCCRanging(ProtocolConfig()),
)
SECURITY = TrialSpec(
    environment="office",
    distance_m=4.0,
    n_trials=4,
    seed=6,
    interference_factory=SpoofInterference(),
)


@pytest.fixture(params=["plain", "multiuser", "cc_engine", "security"])
def spec(request):
    return {
        "plain": PLAIN,
        "multiuser": MULTIUSER,
        "cc_engine": CC_ENGINE,
        "security": SECURITY,
    }[request.param]


@pytest.fixture()
def staged_outcomes(spec):
    return [session.run() for session in build_sessions(spec)]


def test_staged_matches_pre_refactor_monolith(spec, staged_outcomes):
    monolith = [
        run_monolithic(session.context, session.rng)
        for session in build_sessions(spec)
    ]
    assert monolith == staged_outcomes


@pytest.mark.parametrize("batch_size", [1, 3, 16])
def test_batched_matches_staged(spec, staged_outcomes, batch_size):
    # 3 does not divide any spec's trial count: the tail batch is smaller.
    batched = BatchedSessionRunner(batch_size).run(build_sessions(spec))
    assert batched == staged_outcomes
    assert all(isinstance(outcome, RangingOutcome) for outcome in batched)


def _out_of_range_batch():
    """Three sessions; the middle one's vouching device left Bluetooth
    range after pairing, so its round ends at ``negotiate``."""
    sessions = []
    for seed, moved in ((3, False), (4, True), (5, False)):
        world = build_pair_world("office", 0.8, seed)
        if moved:
            world.move_device(VOUCH, Point(20.0, 0.0))
        sessions.append(world.ranging_session(AUTH, VOUCH))
    return sessions


def test_batched_runner_skips_a_failed_negotiation():
    expected = [session.run() for session in _out_of_range_batch()]
    monolith = [
        run_monolithic(session.context, session.rng)
        for session in _out_of_range_batch()
    ]
    reset_render_call_counts()
    batched = BatchedSessionRunner(3).run(_out_of_range_batch())
    assert render_call_counts() == {"noise_plans": 2, "arrival_captures": 4}
    assert batched == expected == monolith
    assert [outcome.status for outcome in batched] == [
        RangingStatus.OK,
        RangingStatus.BLUETOOTH_UNAVAILABLE,
        RangingStatus.OK,
    ]


def test_batch_runner_rejects_bad_batch_size():
    with pytest.raises(ValueError):
        BatchedSessionRunner(0)


def test_detect_batch_matches_per_entry_detect():
    """Mixed engines, configs and recording lengths, in input order.

    Stock ACTION and ACTION-CC sessions under two protocol configs are
    interleaved; every recording goes through its own session's
    ``observe``, whatever its neighbours are.
    """
    mini = mini_protocol_config()
    paper_cell = dict(environment="office", distance_m=1.0, n_trials=2)
    mini_cell = dict(
        environment=mini_environment(), distance_m=0.5, n_trials=2, config=mini
    )
    specs = [
        TrialSpec(seed=3, **paper_cell),
        TrialSpec(seed=3, **mini_cell),
        TrialSpec(seed=5, engine=ActionCCRanging(ProtocolConfig()), **paper_cell),
        TrialSpec(seed=5, engine=ActionCCRanging(mini), **mini_cell),
    ]
    entries = []
    for sessions in zip(*(build_sessions(spec) for spec in specs)):
        for session in sessions:
            prepared = prepare(session.context, session.rng)
            assert isinstance(prepared, PreparedRound)
            (recordings,) = render_arrivals([prepared.planned])
            entries.append((prepared.context, prepared.negotiation, recordings))

    assert detect_batch(entries) == [detect(*entry) for entry in entries]


# ----------------------------------------------------------------------
# Detector: direct window gather and chunked FFT dispatch.
# ----------------------------------------------------------------------


@pytest.fixture()
def detector(config):
    return FrequencyDetector(config)


def _noisy_recording(config, rng, n=50_000, at=12_345):
    ref = signal_from_indices([2, 9, 17, 25], config)
    recording = rng.normal(0.0, 20.0, size=n)
    recording[at : at + config.signal_length] += 0.5 * ref.samples
    return recording


def test_candidate_powers_matches_reference_values(detector, config, rng):
    """The optimized hot path equals the pre-refactor implementation.

    The window gather is exact; the rfft-vs-two-sided-fft switch agrees
    to FFT rounding (~1e-13 relative), far below every decision margin.
    """
    recording = _noisy_recording(config, rng)
    starts = detector.coarse_starts(recording.size)
    new = detector.candidate_powers(recording, starts)
    reference = detector.candidate_powers_reference(recording, starts)
    np.testing.assert_allclose(new, reference, rtol=1e-9)


def test_window_gather_is_exact(detector, config, rng):
    """Gathering windows at the start indices loses nothing: feeding the
    gathered batch through the reference two-sided pipeline reproduces the
    reference output bit for bit."""
    recording = _noisy_recording(config, rng)
    length = config.signal_length
    starts = np.array([0, 17, 1000, 4096, recording.size - length])
    gathered = np.stack([recording[s : s + length] for s in starts])
    view = np.lib.stride_tricks.sliding_window_view(recording, length)
    assert np.array_equal(gathered, view[starts])
    spectra_gathered = np.fft.fft(gathered, axis=1)
    spectra_view = np.fft.fft(view[starts], axis=1)
    assert np.array_equal(spectra_gathered, spectra_view)


def test_chunked_fft_dispatch_is_bit_stable(detector, config, rng):
    recording = _noisy_recording(config, rng)
    starts = np.arange(0, recording.size - config.signal_length, 97)
    baseline = detector.candidate_powers(recording, starts)
    with use_backend(NumpyBackend(fft_chunk_windows=13)):
        assert np.array_equal(
            detector.candidate_powers(recording, starts), baseline
        )


def test_every_chunk_size_matches_unchunked_powers(detector, config, rng):
    """No chunk size changes a power: a one-window remainder is folded.

    A one-window ``window_powers`` batch sums its aggregation bins in a
    different order than a longer batch, so a chunking that left one
    window of a run alone changed that window's bits.  Swept over the
    real scan grids: the coarse pass of a 1.6 s capture (a 67-window run
    plus its single tail start) and a 241-window fine pass.
    """
    from repro.dsp.windows import refine_range

    recording = rng.normal(0.0, 20.0, size=70_560)
    length = config.signal_length
    coarse = detector.coarse_starts(recording.size)
    fine = refine_range(
        center=30_000,
        radius=config.fine_radius,
        total_length=recording.size,
        window_length=length,
        step=config.fine_step,
    )
    runs = FrequencyDetector._regular_runs
    assert [count for _, count, _ in runs(coarse)] == [67, 1]
    assert [count for _, count, _ in runs(fine)] == [241]
    for starts in (coarse, fine):
        whole = starts.size + 1
        with use_backend(NumpyBackend(fft_chunk_windows=whole)):
            unchunked = detector.candidate_powers(recording, starts)
        for chunk in range(2, whole + 1):
            with use_backend(NumpyBackend(fft_chunk_windows=chunk)):
                powers = detector.candidate_powers(recording, starts)
            assert np.array_equal(powers, unchunked), chunk


def test_chunks_fold_a_one_window_remainder():
    chunks = FrequencyDetector._chunks
    assert chunks(1, 64) == [(0, 1)]
    assert chunks(65, 64) == [(0, 65)]
    assert chunks(66, 64) == [(0, 64), (64, 66)]
    assert chunks(7, 3) == [(0, 3), (3, 7)]
    assert chunks(6, 3) == [(0, 3), (3, 6)]


class _CountingBackend(NumpyBackend):
    """The numpy reference, counting ``window_powers`` dispatches."""

    def __init__(self) -> None:
        super().__init__()
        self.window_powers_calls = 0

    def window_powers(self, windows, rfft_bins, length):
        self.window_powers_calls += 1
        return super().window_powers(windows, rfft_bins, length)


def test_observe_matches_two_detect_composition(config, rng):
    """``observe`` is the historical two-``detect`` composition, with one
    coarse pass instead of two."""
    from repro.core.action import ActionRanging

    action = ActionRanging(config)
    detector = action.detector
    own = signal_from_indices([1, 5, 9], config)
    remote = signal_from_indices([2, 12, 22], config)
    recording = rng.normal(0.0, 10.0, size=60_000)
    recording[5_000 : 5_000 + config.signal_length] += own.samples
    recording[40_000 : 40_000 + config.signal_length] += 0.3 * remote.samples

    with use_backend(_CountingBackend()) as counting:
        own_result = detector.detect(recording, [own], ["own"])[0]
        zones = action._own_exclusion_zones(own_result)
        remote_result = detector.detect(
            recording, [remote], ["remote"], exclusion_zones=[zones]
        )[0]
        composed_calls = counting.window_powers_calls
        counting.window_powers_calls = 0
        observation = action.observe(
            recording, own=own, remote=remote, sample_rate=config.sample_rate
        )
        observe_calls = counting.window_powers_calls
        counting.window_powers_calls = 0
        detector.candidate_powers(
            recording, detector.coarse_starts(recording.size)
        )
        coarse_calls = counting.window_powers_calls

    assert observation.own == own_result
    assert observation.remote == remote_result
    assert observation.own.present and observation.remote.present
    assert coarse_calls > 0
    assert observe_calls == composed_calls - coarse_calls


def test_observe_short_recordings(config):
    from repro.core.action import ActionRanging

    action = ActionRanging(config)
    own = signal_from_indices([1, 5], config)
    remote = signal_from_indices([2, 6], config)
    observation = action.observe(
        np.zeros(config.signal_length // 2),
        own=own,
        remote=remote,
        sample_rate=config.sample_rate,
    )
    assert not observation.own.present and not observation.remote.present
    assert observation.own.windows_scanned == 0


# ----------------------------------------------------------------------
# MeasurementCache copy-on-hit behaviour.
# ----------------------------------------------------------------------


def test_immutable_payloads_are_served_without_copy():
    from repro.core.ranging import RangingStatus

    cache = MeasurementCache()
    outcome = RangingOutcome(status=RangingStatus.OK, distance_m=1.25)
    cache.put("sigma", 0.042)
    cache.put("outcome", outcome)
    assert cache.get("sigma") == (True, 0.042)
    found, value = cache.get("outcome")
    assert found and value is outcome  # no defensive copy needed

    mutable = {"rows": [1, 2, 3]}
    cache.put("table", mutable)
    found, value = cache.get("table")
    assert found and value == mutable and value is not mutable
    value["rows"].append(4)
    assert cache.get("table")[1] == {"rows": [1, 2, 3]}


def test_copy_on_hit_false_skips_defensive_copies():
    cache = MeasurementCache()
    payload = {"frozen-by-contract": [1, 2]}
    cache.put("cell", payload, copy_on_hit=False)
    found, value = cache.get("cell")
    assert found and value is payload


def test_is_deeply_immutable_classification():
    from repro.core.ranging import RangingStatus
    from repro.eval.engine import CellResult

    assert is_deeply_immutable(3.5)
    assert is_deeply_immutable(("a", 1, None, frozenset({2.0})))
    assert is_deeply_immutable(RangingStatus.OK)
    assert is_deeply_immutable(
        RangingOutcome(status=RangingStatus.OK, distance_m=0.5)
    )
    assert not is_deeply_immutable([1, 2])
    assert not is_deeply_immutable({"a": 1})
    assert not is_deeply_immutable(CellResult(environment="office", distance_m=1.0))

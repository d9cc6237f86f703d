"""Equivalence tests for the staged/batched ranging pipeline.

The contract under test: the staged serial path (``RangingSession.run``),
the batched path (:class:`BatchedSessionRunner`, any batch size), and the
pre-refactor monolithic loop (:func:`run_monolithic`) produce
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
from repro.core.ranging import RangingOutcome
from repro.core.signal_construction import signal_from_indices
from repro.corpus import mini_environment, mini_protocol_config
from repro.eval.engine import (
    AUTH,
    VOUCH,
    MeasurementCache,
    TrialEngine,
    TrialSpec,
    build_pair_world,
    run_cell_spec,
    use_engine,
)
from repro.eval.engine.cache import is_deeply_immutable
from repro.eval.registry import run_experiment
from repro.eval.trials import ConcurrentUsersInterference
from repro.sim.pipeline import (
    BatchedSessionRunner,
    detect,
    detect_batch,
    negotiate,
    render,
    run_monolithic,
    schedule,
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
        run_monolithic(session.context, session.rng, session.artifacts)
        for session in build_sessions(spec)
    ]
    assert monolith == staged_outcomes


@pytest.mark.parametrize("batch_size", [1, 3, 16])
def test_batched_matches_staged(spec, staged_outcomes, batch_size):
    # 3 does not divide any spec's trial count: the tail batch is smaller.
    batched = BatchedSessionRunner(batch_size).run(build_sessions(spec))
    assert batched == staged_outcomes
    assert all(isinstance(outcome, RangingOutcome) for outcome in batched)


def test_run_cell_spec_batch_invariant(spec):
    serial = run_cell_spec(spec, batch_size=1)
    for batch_size in (None, 2, 16):
        batched = run_cell_spec(spec, batch_size=batch_size)
        assert batched.outcomes == serial.outcomes
        assert batched.stats.errors_m == serial.stats.errors_m
        assert batched.stats.not_present == serial.stats.not_present


def test_batched_runner_populates_artifacts(spec):
    reference = build_sessions(spec)
    for session in reference:
        session.run()
    batched = build_sessions(spec)
    BatchedSessionRunner(4).run(batched)
    for expected, actual in zip(reference, batched):
        art_a, art_b = expected.artifacts, actual.artifacts
        assert np.array_equal(art_a.recording_auth, art_b.recording_auth)
        assert np.array_equal(art_a.recording_vouch, art_b.recording_vouch)
        assert art_a.auth_play_world == art_b.auth_play_world
        assert len(art_a.playbacks) == len(art_b.playbacks)
        assert art_a.report == art_b.report


def test_batch_runner_rejects_bad_batch_size():
    with pytest.raises(ValueError):
        BatchedSessionRunner(0)


def test_detect_batch_matches_per_entry_detect():
    """Stacking groups, per-session fallbacks, and input order.

    Stock ACTION and ACTION-CC sessions under two protocol configs are
    interleaved, so one call holds two stacking groups (one per config)
    plus the ACTION-CC sessions that fall back to per-session ``detect``.
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
            ctx, rng = session.context, session.rng
            negotiation = negotiate(ctx, rng)
            assert negotiation.failure is None
            recordings = render(ctx, schedule(ctx, negotiation, rng), rng)
            entries.append((ctx, negotiation, recordings))

    assert detect_batch(entries) == [detect(*entry) for entry in entries]


# ----------------------------------------------------------------------
# Experiment tables: --batch N must not change a single output byte.
# ----------------------------------------------------------------------


def _experiment_text(name: str, batch_size, trials: int) -> str:
    engine = TrialEngine(jobs=1, batch_size=batch_size)
    with use_engine(engine):
        report = run_experiment(name, trials=trials, seed=0, quick=True)
    text = report.to_text()
    # Engine accounting keys vary with wall clock; tables must not.
    assert "engine:elapsed_s" in report.data
    return text


@pytest.mark.parametrize(
    "name,trials", [("fig1", 2), ("fig2a", 2), ("security", 10)]
)
def test_experiment_tables_batch_invariant(name, trials):
    serial = _experiment_text(name, 1, trials)
    batched = _experiment_text(name, 16, trials)
    assert batched == serial


def test_experiment_tables_backend_invariant(monkeypatch):
    """The default backend reproduces the numpy reference tables.

    With no explicit choice (no ``--dsp-backend``, no env var), selection
    installs the numpy reference, so experiment tables are byte-identical
    to a run pinned to it.
    """
    from repro.dsp.backend import BACKEND_ENV_VAR, select_backend, use_backend

    monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
    with use_backend("numpy"):
        reference = _experiment_text("fig1", 16, 2)
    with use_backend(select_backend()):
        assert _experiment_text("fig1", 16, 2) == reference


# ----------------------------------------------------------------------
# Detector: direct window gather and stacked FFT passes.
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


def test_stacked_powers_bit_identical_to_per_recording(detector, config, rng):
    recordings = np.stack(
        [_noisy_recording(config, rng), rng.normal(0.0, 20.0, size=50_000)]
    )
    starts = detector.coarse_starts(recordings.shape[1])
    jobs = [(0, starts), (1, starts), (0, starts[3:7]), (1, starts[:0])]
    stacked = detector.candidate_powers_stacked(recordings, jobs)
    assert len(stacked) == len(jobs)
    for powers, (index, job_starts) in zip(stacked, jobs):
        assert np.array_equal(
            powers, detector.candidate_powers(recordings[index], job_starts)
        )


def test_chunked_fft_dispatch_is_bit_stable(detector, config, rng, monkeypatch):
    recording = _noisy_recording(config, rng)
    starts = np.arange(0, recording.size - config.signal_length, 97)
    baseline = detector.candidate_powers(recording, starts)
    monkeypatch.setattr(FrequencyDetector, "MAX_FFT_WINDOWS", 13)
    assert np.array_equal(
        detector.candidate_powers(recording, starts), baseline
    )


def test_stacked_rejects_bad_inputs(detector, config):
    with pytest.raises(ValueError):
        detector.candidate_powers_stacked(np.zeros(100), [(0, np.array([0]))])
    stack = np.zeros((2, 10_000))
    with pytest.raises(ValueError):
        detector.candidate_powers_stacked(stack, [(2, np.array([0]))])
    with pytest.raises(ValueError):
        detector.candidate_powers_stacked(stack, [(0, np.array([9_000]))])


def test_observe_batch_matches_observe(config, rng):
    from repro.core.action import ActionRanging

    action = ActionRanging(config)
    own_a = signal_from_indices([1, 5, 9], config)
    remote_a = signal_from_indices([2, 12, 22], config)
    own_b = signal_from_indices([0, 7, 14, 21], config)
    remote_b = signal_from_indices([3, 8, 13], config)
    rec_a = rng.normal(0.0, 10.0, size=60_000)
    rec_a[5_000 : 5_000 + config.signal_length] += own_a.samples
    rec_a[40_000 : 40_000 + config.signal_length] += 0.3 * remote_a.samples
    rec_b = rng.normal(0.0, 10.0, size=60_000)
    rec_b[9_000 : 9_000 + config.signal_length] += own_b.samples

    scans = [
        (own_a, remote_a, config.sample_rate),
        (own_b, remote_b, config.sample_rate),
    ]
    batched = action.observe_batch(np.stack([rec_a, rec_b]), scans)
    serial = [
        action.observe(rec, own=own, remote=remote, sample_rate=rate)
        for rec, (own, remote, rate) in zip([rec_a, rec_b], scans)
    ]
    assert batched == serial
    assert batched[0].own.present
    assert batched[0].remote.present


def test_observe_batch_short_recordings(config):
    from repro.core.action import ActionRanging

    action = ActionRanging(config)
    own = signal_from_indices([1, 5], config)
    remote = signal_from_indices([2, 6], config)
    tiny = np.zeros((2, config.signal_length // 2))
    observations = action.observe_batch(
        tiny, [(own, remote, config.sample_rate)] * 2
    )
    assert all(not obs.own.present for obs in observations)
    assert all(obs.own.windows_scanned == 0 for obs in observations)


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

"""Tests for propagation, noise, environments, and the mixer."""

import numpy as np
import pytest

from repro.acoustics.environment import (
    ENVIRONMENTS,
    FIGURE1_ENVIRONMENTS,
    get_environment,
)
from repro.acoustics.mixer import AcousticMixer, PlaybackEvent, RecordingRequest
from repro.acoustics.noise import NoiseModel, low_frequency_power_fraction
from repro.acoustics.propagation import PropagationModel
from repro.devices.clock import DeviceClock
from repro.devices.device import Device
from repro.sim.geometry import Point, Room

FS = 44_100.0


# ------------------------------------------------------------ propagation


def test_delay_is_distance_over_speed():
    prop = PropagationModel(speed_of_sound=343.0)
    assert prop.delay_s(3.43) == pytest.approx(0.01)


def test_spreading_clamped_in_near_field():
    prop = PropagationModel(reference_distance_m=0.5)
    assert prop.spreading_factor(0.0) == 1.0
    assert prop.spreading_factor(0.3) == 1.0


def test_spreading_decays_beyond_reference():
    prop = PropagationModel(reference_distance_m=0.5, absorption_db_per_m=0.0)
    assert prop.spreading_factor(1.0) == pytest.approx(0.5)
    assert prop.spreading_factor(2.0) == pytest.approx(0.25)


def test_absorption_steepens_decay():
    lossless = PropagationModel(absorption_db_per_m=0.0)
    lossy = PropagationModel(absorption_db_per_m=1.5)
    assert lossy.spreading_factor(2.0) < lossless.spreading_factor(2.0)


def test_wall_attenuation_multiplies():
    prop = PropagationModel()
    room = Room.with_dividing_wall(x=0.5, attenuation_db=30.0)
    free = prop.path_amplitude(Point(0, 0), Point(1, 0), Room.open_space())
    walled = prop.path_amplitude(Point(0, 0), Point(1, 0), room)
    assert walled == pytest.approx(free * 10 ** (-30 / 20))


def test_detection_range_near_paper_value():
    """With the calibrated constants, predicted d_s sits near 2.5 m."""
    prop = PropagationModel()
    d_s = prop.detection_range_m(end_to_end_gain=0.9, alpha=0.01)
    assert 2.0 < d_s < 3.2


def test_propagation_validation():
    with pytest.raises(ValueError):
        PropagationModel(speed_of_sound=0.0)
    prop = PropagationModel()
    with pytest.raises(ValueError):
        prop.delay_s(-1.0)


# ------------------------------------------------------------ noise


def test_noise_power_concentrates_below_6khz():
    """The §VI-A premise that motivates the 25–35 kHz band."""
    rng = np.random.default_rng(0)
    for env in FIGURE1_ENVIRONMENTS:
        noise = env.noise.sample(44_100, FS, rng)
        fraction = low_frequency_power_fraction(noise, FS, cutoff_hz=6000.0)
        assert fraction > 0.85, f"{env.name}: only {fraction:.2f} below 6 kHz"


def test_noise_total_power():
    model = NoiseModel(low_freq_std=3.0, broadband_std=4.0)
    assert model.total_power == pytest.approx(25.0)


def test_noise_sample_statistics():
    model = NoiseModel(low_freq_std=100.0, broadband_std=10.0)
    noise = model.sample(88_200, FS, np.random.default_rng(1))
    assert np.std(noise) == pytest.approx(np.sqrt(100**2 + 10**2), rel=0.1)


def test_noise_scaled():
    model = NoiseModel(low_freq_std=100.0, broadband_std=10.0)
    scaled = model.scaled(2.0)
    assert scaled.low_freq_std == 200.0
    assert scaled.broadband_std == 20.0
    with pytest.raises(ValueError):
        model.scaled(-1.0)


def test_noise_validation():
    with pytest.raises(ValueError):
        NoiseModel(low_freq_std=-1.0)
    # The order is checked at construction, not at the first render.
    for order in (0, 4.5, True):
        with pytest.raises(ValueError):
            NoiseModel(filter_order=order)
    model = NoiseModel(low_freq_cutoff_hz=30_000.0)
    with pytest.raises(ValueError):
        model.sample(100, FS, np.random.default_rng(0))


def test_noise_empty_sample():
    assert NoiseModel().sample(0, FS, np.random.default_rng(0)).shape == (0,)


# ------------------------------------------------------------ environments


def test_environment_registry():
    assert set(ENVIRONMENTS) >= {"office", "home", "street", "restaurant"}
    assert get_environment("office").name == "office"
    with pytest.raises(KeyError):
        get_environment("moon")


def test_street_noisier_than_office():
    assert (
        get_environment("street").noise.total_power
        > get_environment("office").noise.total_power
    )


def test_environment_noise_scale_helper():
    office = get_environment("office")
    louder = office.with_noise_scale(2.0)
    assert louder.noise.total_power == pytest.approx(4 * office.noise.total_power)


def test_self_path_shares_dispersion():
    office = get_environment("office")
    self_profile = office.reverb.self_path()
    assert self_profile.group_delay_samples == office.reverb.group_delay_samples
    assert self_profile.reflection_strength < office.reverb.reflection_strength


# ------------------------------------------------------------ mixer


def _device(name, position, gap=0.02):
    from repro.devices.audio import MicrophoneSpec, SpeakerSpec

    return Device(
        name=name,
        position=position,
        clock=DeviceClock(),
        speaker=SpeakerSpec(gain=1.0, self_gap_m=gap),
        microphone=MicrophoneSpec(gain=1.0, self_noise_std=0.0),
    )


def _quiet_mixer(rng_seed=0):
    env = get_environment("quiet_lab")
    silent = NoiseModel(low_freq_std=0.0, broadband_std=0.0)
    from dataclasses import replace

    return AcousticMixer(
        environment=replace(env, noise=silent),
        rng=np.random.default_rng(rng_seed),
    )


def test_mixer_places_arrival_at_propagation_delay():
    source = _device("src", Point(0, 0))
    sink = _device("dst", Point(1.0, 0))
    mixer = _quiet_mixer()
    waveform = np.zeros(64)
    waveform[0] = 1000.0
    playback = PlaybackEvent(device=source, waveform=waveform, world_start=0.1)
    recording = mixer.render(RecordingRequest(sink, 0.0, 20_000), [playback])
    first = int(np.nonzero(np.abs(recording) > 1.0)[0][0])
    expected = round((0.1 + 1.0 / 343.0) * FS)
    assert abs(first - expected) <= 2


def test_mixer_amplitude_decays_with_distance():
    mixer = _quiet_mixer()
    source = _device("src", Point(0, 0))
    near = _device("near", Point(0.6, 0))
    far = _device("far", Point(2.0, 0))
    waveform = 1000.0 * np.ones(256)
    playback = PlaybackEvent(device=source, waveform=waveform, world_start=0.0)
    rec_near = mixer.render(RecordingRequest(near, 0.0, 4096), [playback])
    rec_far = mixer.render(RecordingRequest(far, 0.0, 4096), [playback])
    assert np.abs(rec_near).max() > np.abs(rec_far).max()


def test_mixer_wall_blocks_most_energy():
    from dataclasses import replace

    env = replace(
        get_environment("quiet_lab"),
        noise=NoiseModel(low_freq_std=0.0, broadband_std=0.0),
    )
    source = _device("src", Point(0, 0))
    sink = _device("dst", Point(1.0, 0))
    waveform = 1000.0 * np.ones(256)
    playback = PlaybackEvent(device=source, waveform=waveform, world_start=0.0)
    open_mixer = AcousticMixer(environment=env, rng=np.random.default_rng(0))
    walled_mixer = AcousticMixer(
        environment=env,
        room=Room.with_dividing_wall(x=0.5, attenuation_db=30.0),
        rng=np.random.default_rng(0),
    )
    rec_open = open_mixer.render(RecordingRequest(sink, 0.0, 4096), [playback])
    rec_wall = walled_mixer.render(RecordingRequest(sink, 0.0, 4096), [playback])
    assert np.abs(rec_wall).max() < 0.2 * np.abs(rec_open).max()


def test_mixer_self_path_uses_speaker_gap():
    device = _device("solo", Point(0, 0), gap=0.02)
    mixer = _quiet_mixer()
    waveform = np.zeros(16)
    waveform[0] = 1000.0
    playback = PlaybackEvent(device=device, waveform=waveform, world_start=0.0)
    recording = mixer.render(RecordingRequest(device, 0.0, 1024), [playback])
    assert np.abs(recording).max() > 100.0  # near-field clamp, almost no loss


def test_mixer_output_is_quantized():
    mixer = _quiet_mixer()
    device = _device("solo", Point(0, 0))
    recording = mixer.render(RecordingRequest(device, 0.0, 512), [])
    np.testing.assert_array_equal(recording, np.rint(recording))


def test_mixer_channels_stable_within_session():
    mixer = _quiet_mixer()
    a = _device("a", Point(0, 0))
    b = _device("b", Point(1, 0))
    taps1 = mixer._channel_taps(a, b)
    taps2 = mixer._channel_taps(a, b)
    np.testing.assert_array_equal(taps1, taps2)
    taps_rev = mixer._channel_taps(b, a)
    assert taps_rev.shape != taps1.shape or not np.allclose(taps_rev, taps1)


def test_recording_request_validation():
    with pytest.raises(ValueError):
        RecordingRequest(_device("x", Point(0, 0)), 0.0, 0)


def test_playback_event_validation():
    with pytest.raises(ValueError):
        PlaybackEvent(
            device=_device("x", Point(0, 0)),
            waveform=np.zeros((2, 2)),
            world_start=0.0,
        )


def test_noise_sample_equals_draw_plus_shape():
    """The draw/shape split composes to the historical one-shot sample."""
    model = NoiseModel(low_freq_std=800.0, broadband_std=120.0)
    sampled = model.sample(8_000, 44_100.0, np.random.default_rng(3))
    draw = model.draw(8_000, 44_100.0, np.random.default_rng(3))
    assert np.array_equal(model.shape(draw), sampled)


def test_noise_sos_design_is_cached():
    model = NoiseModel(low_freq_std=800.0, low_freq_cutoff_hz=3_500.0)
    first = model.sos(44_100.0)
    assert first is model.sos(44_100.0)  # same frozen object, no redesign
    assert not first.flags.writeable
    other = model.sos(48_000.0)
    assert other is not first


def test_noise_draw_validation_matches_sample():
    model = NoiseModel(low_freq_cutoff_hz=4_000.0)
    with pytest.raises(ValueError):
        model.draw(100, 7_000.0, np.random.default_rng(0))  # cutoff >= Nyquist
    empty = model.draw(0, 44_100.0, np.random.default_rng(0))
    assert model.shape(empty).shape == (0,)

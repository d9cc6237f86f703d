"""Integration tests for RangingSession and AcousticWorld."""

import pytest

from repro import (
    AcousticWorld,
    AuthConfig,
    DenyReason,
    PairingError,
    Point,
    RangingStatus,
    Room,
)
from repro.sim.pipeline import negotiate, schedule
from repro.sim.session import SessionTiming
from tests.conftest import make_pair_world


def test_ranging_close_devices_accurate(pair_world):
    outcome = pair_world.range_once("auth", "vouch")
    assert outcome.status is RangingStatus.OK
    assert outcome.distance_m == pytest.approx(0.8, abs=0.25)


def test_ranging_requires_pairing():
    world = AcousticWorld(environment="quiet_lab", seed=1)
    world.add_device("a", Point(0, 0))
    world.add_device("b", Point(1, 0))
    with pytest.raises(PairingError):
        world.range_once("a", "b")


def test_far_devices_not_present():
    world = make_pair_world(distance_m=5.0)
    outcome = world.range_once("auth", "vouch")
    assert outcome.status is RangingStatus.SIGNAL_NOT_PRESENT


def test_out_of_bluetooth_range_fails_fast():
    world = make_pair_world(distance_m=0.8)
    world.move_device("vouch", Point(20.0, 0.0))
    outcome = world.range_once("auth", "vouch")
    assert outcome.status is RangingStatus.BLUETOOTH_UNAVAILABLE


def test_authenticate_grant_and_metadata(pair_world):
    result = pair_world.authenticate("auth", "vouch", AuthConfig(threshold_m=1.0))
    assert result.granted
    assert result.rounds == 1
    assert 2.0 < result.elapsed_s < 5.0  # paper: ~3 s
    assert 1.0 < result.energy_j < 4.0  # paper: ~0.6 %/100 auths


def test_authenticate_deny_threshold():
    world = make_pair_world(distance_m=1.6)
    result = world.authenticate("auth", "vouch", AuthConfig(threshold_m=0.5))
    assert not result.granted
    assert result.reason is DenyReason.DISTANCE_EXCEEDS_THRESHOLD


def test_authenticate_unpaired_denied():
    world = AcousticWorld(environment="quiet_lab", seed=3)
    world.add_device("a", Point(0, 0))
    world.add_device("b", Point(0.5, 0))
    result = world.authenticate("a", "b")
    assert result.reason is DenyReason.NOT_PAIRED


def test_wall_between_devices_denies():
    world = make_pair_world(
        distance_m=1.0, room=Room.with_dividing_wall(x=0.5)
    )
    result = world.authenticate("auth", "vouch", AuthConfig(threshold_m=1.5))
    assert not result.granted
    assert result.reason is DenyReason.SIGNAL_NOT_PRESENT


def test_battery_drains_per_round(pair_world):
    device = pair_world.device("auth")
    before = device.battery.consumed_j
    pair_world.range_once("auth", "vouch")
    assert device.battery.consumed_j > before


def test_schedule_plays_both_references_apart(pair_world):
    session = pair_world.ranging_session("auth", "vouch")
    ctx, rng = session.context, session.rng
    plan = schedule(ctx, negotiate(ctx, rng), rng)
    assert [p.label for p in plan.playbacks] == ["S_A", "S_V"]
    assert [p.world_start for p in plan.playbacks] == [
        plan.auth_play_world,
        plan.vouch_play_world,
    ]
    duration = pair_world.config.signal_duration
    assert plan.vouch_play_world - plan.auth_play_world > 2 * duration


def test_same_seed_reproduces_distance():
    a = make_pair_world(seed=77).range_once("auth", "vouch")
    b = make_pair_world(seed=77).range_once("auth", "vouch")
    assert a.distance_m == b.distance_m


def test_different_seeds_differ():
    a = make_pair_world(seed=1).range_once("auth", "vouch")
    b = make_pair_world(seed=2).range_once("auth", "vouch")
    assert a.distance_m != b.distance_m


def test_duplicate_device_name_rejected():
    world = AcousticWorld(seed=0)
    world.add_device("x", Point(0, 0))
    with pytest.raises(ValueError):
        world.add_device("x", Point(1, 0))


def test_device_override_attributes():
    world = AcousticWorld(seed=0)
    from repro.devices.clock import DeviceClock

    clock = DeviceClock(offset_s=1.0)
    device = world.add_device("x", Point(0, 0), clock=clock)
    assert device.clock.offset_s == 1.0
    with pytest.raises(AttributeError):
        world.add_device("y", Point(0, 0), nonsense=1)


def test_unpair_forgets_registration(pair_world):
    pair_world.unpair("auth", "vouch")
    result = pair_world.authenticate("auth", "vouch")
    assert result.reason is DenyReason.NOT_PAIRED


def test_session_timing_validation():
    with pytest.raises(ValueError):
        SessionTiming(record_span_s=-1.0)
    with pytest.raises(ValueError):
        SessionTiming(vouch_play_offset_s=5.0)


def test_environment_accepts_name_or_object():
    from repro.acoustics.environment import get_environment

    by_name = AcousticWorld(environment="office", seed=0)
    by_obj = AcousticWorld(environment=get_environment("office"), seed=0)
    assert by_name.environment.name == by_obj.environment.name


def test_clock_offsets_do_not_bias_distance():
    """Devices with wildly different clock offsets must agree with the
    Eq. 3 estimate — the paper's central no-synchronization claim."""
    from repro.devices.clock import DeviceClock

    world = AcousticWorld(environment="quiet_lab", seed=21)
    world.add_device(
        "auth", Point(0, 0), clock=DeviceClock(offset_s=0.0, skew_ppm=5.0)
    )
    world.add_device(
        "vouch", Point(1.0, 0), clock=DeviceClock(offset_s=5000.0, skew_ppm=-8.0)
    )
    world.pair("auth", "vouch")
    outcome = world.range_once("auth", "vouch")
    assert outcome.ok
    assert outcome.distance_m == pytest.approx(1.0, abs=0.25)

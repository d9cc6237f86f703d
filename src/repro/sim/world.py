"""The acoustic world: devices, environment, pairings, and experiments' API.

:class:`AcousticWorld` is the top-level simulation object every example,
test, and experiment builds on:

>>> from repro import AcousticWorld, AuthConfig, Point
>>> world = AcousticWorld(seed=7)
>>> phone = world.add_device("phone", Point(0.0, 0.0))
>>> watch = world.add_device("watch", Point(0.8, 0.0))
>>> world.pair("phone", "watch")                    # registration (once)
>>> result = world.authenticate("phone", "watch",
...                             AuthConfig(threshold_m=1.0))
>>> result.granted
True

The world owns the reproducible randomness tree: device hardware is derived
from fixed per-name streams, while each ranging session draws a fresh
session stream — re-running a world with the same seed replays the exact
same experiment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.acoustics.environment import Environment, get_environment
from repro.acoustics.propagation import PropagationModel
from repro.comms.bluetooth import (
    DEFAULT_BLUETOOTH_RANGE_M,
    BluetoothLink,
    pair_devices,
)
from repro.core.action import ActionRanging
from repro.core.config import AuthConfig, ProtocolConfig
from repro.core.decisions import AuthResult
from repro.core.exceptions import PairingError
from repro.core.piano import PianoAuthenticator
from repro.core.ranging import RangingOutcome
from repro.devices.device import Device
from repro.sim.geometry import Point, Room
from repro.sim.pipeline import SessionContext
from repro.sim.rng import RngFactory
from repro.sim.session import InterferenceProvider, RangingSession, SessionTiming

__all__ = ["AcousticWorld"]


@dataclass
class _LinkPairingView:
    """Adapter exposing a Bluetooth link as a :class:`PairingView`."""

    link: BluetoothLink | None

    def is_paired(self) -> bool:
        return self.link is not None

    def in_range(self) -> bool:
        return self.link is not None and self.link.in_range()


@dataclass
class AcousticWorld:
    """A simulated scene in which PIANO runs.

    Parameters
    ----------
    config:
        The ACTION protocol configuration (defaults to the paper's §VI-A
        prototype parameters).
    environment:
        An :class:`Environment` or preset name ("office", "home", "street",
        "restaurant", "quiet_lab").
    room:
        Floor plan (walls); defaults to open space.
    seed:
        Root seed of the world's reproducible randomness tree.
    timing:
        Session timing constants (recording span, play offsets, …).
    """

    config: ProtocolConfig = field(default_factory=ProtocolConfig)
    environment: Environment | str = "office"
    room: Room = field(default_factory=Room.open_space)
    seed: int = 0
    timing: SessionTiming = field(default_factory=SessionTiming)
    propagation: PropagationModel | None = None

    def __post_init__(self) -> None:
        if isinstance(self.environment, str):
            self.environment = get_environment(self.environment)
        if self.propagation is None:
            self.propagation = PropagationModel(
                speed_of_sound=self.config.speed_of_sound
            )
        self.rngs = RngFactory(seed=self.seed)
        self.devices: dict[str, Device] = {}
        self.links: dict[frozenset[str], BluetoothLink] = {}
        self.action = ActionRanging(self.config)
        self._session_counter = 0

    # ------------------------------------------------------------------
    # Scene construction
    # ------------------------------------------------------------------

    def add_device(self, name: str, position: Point, **overrides) -> Device:
        """Create a device with a seed-derived random hardware realization.

        ``overrides`` replace attributes of the realized device (e.g.
        ``clock=...``, ``speaker=...``) for controlled experiments.
        """
        if name in self.devices:
            raise ValueError(f"device name {name!r} already in use")
        device = Device.random(
            name,
            position,
            self.rngs,
            n_candidates=self.config.n_candidates,
            nominal_sample_rate=self.config.sample_rate,
        )
        for attr, value in overrides.items():
            if not hasattr(device, attr):
                raise AttributeError(f"Device has no attribute {attr!r}")
            setattr(device, attr, value)
        self.devices[name] = device
        return device

    def device(self, name: str) -> Device:
        try:
            return self.devices[name]
        except KeyError:
            raise KeyError(f"unknown device {name!r}") from None

    def pair(
        self,
        name_a: str,
        name_b: str,
        range_m: float = DEFAULT_BLUETOOTH_RANGE_M,
    ) -> BluetoothLink:
        """Registration phase: pair two devices over Bluetooth (§IV)."""
        link = pair_devices(
            self.device(name_a),
            self.device(name_b),
            self.rngs.generator("pairing"),
            range_m=range_m,
        )
        self.links[frozenset((name_a, name_b))] = link
        return link

    def link_between(self, name_a: str, name_b: str) -> BluetoothLink | None:
        """The pairing between two devices, if registered."""
        return self.links.get(frozenset((name_a, name_b)))

    def unpair(self, name_a: str, name_b: str) -> None:
        """Forget a registration."""
        self.links.pop(frozenset((name_a, name_b)), None)

    # ------------------------------------------------------------------
    # Ranging and authentication
    # ------------------------------------------------------------------

    def ranging_session(
        self,
        auth_name: str,
        vouch_name: str,
        interference: Sequence[InterferenceProvider] = (),
        engine=None,
    ) -> RangingSession:
        """Build one ACTION session (requires an existing pairing).

        ``engine`` overrides the ranging engine — e.g.
        :class:`repro.baselines.cc_detector.ActionCCRanging` for the
        ACTION-CC ablation; default is the paper's ACTION.
        """
        link = self.link_between(auth_name, vouch_name)
        if link is None:
            raise PairingError(
                f"devices {auth_name!r} and {vouch_name!r} are not paired"
            )
        self._session_counter += 1
        assert self.propagation is not None
        assert isinstance(self.environment, Environment)
        context = SessionContext(
            action=engine if engine is not None else self.action,
            link=link,
            auth_device=self.device(auth_name),
            vouch_device=self.device(vouch_name),
            environment=self.environment,
            room=self.room,
            propagation=self.propagation,
            timing=self.timing,
            session_id=self._session_counter,
            interference=tuple(interference),
        )
        return RangingSession(context, self.rngs.generator("session"))

    def range_once(
        self,
        auth_name: str,
        vouch_name: str,
        interference: Sequence[InterferenceProvider] = (),
    ) -> RangingOutcome:
        """Run one ACTION round and return its outcome."""
        return self.ranging_session(auth_name, vouch_name, interference).run()

    def authenticate(
        self,
        auth_name: str,
        vouch_name: str,
        auth_config: AuthConfig | None = None,
        interference: Sequence[InterferenceProvider] = (),
    ) -> AuthResult:
        """Run a full PIANO authentication (§IV authentication phase)."""
        link = self.link_between(auth_name, vouch_name)
        authenticator = PianoAuthenticator(auth_config)
        return authenticator.authenticate(
            pairing=_LinkPairingView(link),
            ranger=lambda: self.range_once(auth_name, vouch_name, interference),
        )

    # ------------------------------------------------------------------

    def move_device(self, name: str, position: Point) -> None:
        """Relocate a device (the user walks away / returns)."""
        self.device(name).move_to(position)

    def distance_between(self, name_a: str, name_b: str) -> float:
        return self.device(name_a).distance_to(self.device(name_b))

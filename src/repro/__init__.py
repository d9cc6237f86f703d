"""repro — a full reproduction of PIANO (Gong et al., ICDCS 2017).

PIANO authenticates a user on a voice-powered IoT device by acoustically
measuring the distance to a *vouching device* the user carries, granting
access iff the distance is within a user-selected threshold.  This package
implements the complete system on a simulated acoustic substrate:

* :mod:`repro.core` — the ACTION ranging protocol and PIANO decision layer;
* :mod:`repro.dsp`, :mod:`repro.acoustics`, :mod:`repro.devices`,
  :mod:`repro.comms`, :mod:`repro.sim` — the substrates (signal processing,
  propagation/noise, device hardware, Bluetooth, world simulation);
* :mod:`repro.baselines` — ACTION-CC and Echo/Echo-Secure comparators;
* :mod:`repro.attacks` — the threat model's adversaries;
* :mod:`repro.eval` — experiment drivers regenerating every table and
  figure of the paper's evaluation.

Quickstart::

    from repro import AcousticWorld, AuthConfig, Point

    world = AcousticWorld(environment="office", seed=7)
    world.add_device("assistant", Point(0.0, 0.0))
    world.add_device("watch", Point(0.8, 0.0))
    world.pair("assistant", "watch")
    result = world.authenticate("assistant", "watch",
                                AuthConfig(threshold_m=1.0))
    print(result)

The names below are exported lazily (PEP 562): ``import repro`` loads
none of the simulator, and each name is imported from its module on
first access.  Processes that never touch the simulator — the shard
router, the service client, ``build_parser()`` — therefore load no
numpy or scipy.
"""

from __future__ import annotations

import importlib

__version__ = "1.0.0"

__all__ = [
    "AcousticWorld",
    "ActionRanging",
    "AuthConfig",
    "AuthDecision",
    "AuthResult",
    "ChannelSecurityError",
    "ConfigurationError",
    "DenyReason",
    "DetectionResult",
    "Device",
    "DeviceObservation",
    "ENVIRONMENTS",
    "Environment",
    "FrequencyDetector",
    "FrequencyPlan",
    "PairingError",
    "PianoAuthenticator",
    "PianoError",
    "Point",
    "PreAuthenticator",
    "ProtocolConfig",
    "ProtocolError",
    "RangingOutcome",
    "RangingStatus",
    "ReferenceSignal",
    "Room",
    "SignalNotPresentError",
    "SignalPair",
    "Wall",
    "build_frequency_plan",
    "construct_reference_signal",
    "estimate_distance",
    "get_environment",
    "paper_config",
    "signal_from_indices",
    "__version__",
]

#: Where each exported name is defined; ``__getattr__`` imports it on
#: first access.
_EXPORTS = {
    "ActionRanging": "repro.core.action",
    "SignalPair": "repro.core.action",
    "AuthConfig": "repro.core.config",
    "ProtocolConfig": "repro.core.config",
    "paper_config": "repro.core.config",
    "AuthDecision": "repro.core.decisions",
    "AuthResult": "repro.core.decisions",
    "DenyReason": "repro.core.decisions",
    "DetectionResult": "repro.core.detection",
    "FrequencyDetector": "repro.core.detection",
    "ChannelSecurityError": "repro.core.exceptions",
    "ConfigurationError": "repro.core.exceptions",
    "PairingError": "repro.core.exceptions",
    "PianoError": "repro.core.exceptions",
    "ProtocolError": "repro.core.exceptions",
    "SignalNotPresentError": "repro.core.exceptions",
    "FrequencyPlan": "repro.core.frequencies",
    "build_frequency_plan": "repro.core.frequencies",
    "PianoAuthenticator": "repro.core.piano",
    "PreAuthenticator": "repro.core.piano",
    "DeviceObservation": "repro.core.ranging",
    "RangingOutcome": "repro.core.ranging",
    "RangingStatus": "repro.core.ranging",
    "estimate_distance": "repro.core.ranging",
    "ReferenceSignal": "repro.core.signal_construction",
    "construct_reference_signal": "repro.core.signal_construction",
    "signal_from_indices": "repro.core.signal_construction",
    "ENVIRONMENTS": "repro.acoustics.environment",
    "Environment": "repro.acoustics.environment",
    "get_environment": "repro.acoustics.environment",
    "Device": "repro.devices.device",
    "Point": "repro.sim.geometry",
    "Room": "repro.sim.geometry",
    "Wall": "repro.sim.geometry",
    "AcousticWorld": "repro.sim.world",
}


def _lazy_exports(namespace: dict, exports: dict[str, str]):
    """PEP 562 ``__getattr__`` and ``__dir__`` for a package namespace.

    Each name in ``exports`` (name → defining module) is imported on
    first access and cached in ``namespace``, so importing the package
    itself imports none of those modules.  ``repro.service`` and
    ``repro.dsp.backend`` export the same way.
    """

    def __getattr__(name: str):
        try:
            module = exports[name]
        except KeyError:
            raise AttributeError(
                f"module {namespace['__name__']!r} has no attribute {name!r}"
            ) from None
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(exports))

    return __getattr__, __dir__


__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)

"""Scenario DSL: documents, compiler, paper parity, new workloads.

The load-bearing guarantees under test:

* **Paper parity** — the builtin ``paper-*`` scenarios compile to plans
  whose keys, fingerprints, and ``run_cell_spec`` outcomes are
  byte-identical to the hand-built Fig. 1 / Fig. 2(a) experiment tables.
* **Determinism** — compiling is a pure function of the document:
  fingerprints match across processes (no ``id()``-flavored tokens leak
  into compiled specs).
* **Geometry** — worlds compile in the pair frame
  (verifier → origin, prover → ``(d, 0)``); walls and scripted devices
  are carried through the same rigid transform.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.acoustics.environment import FIGURE1_ENVIRONMENTS
from repro.corpus.codec import canonical_outcome_json, outcome_to_json
from repro.eval.engine import TrialPlan, TrialSpec, run_cell_spec
from repro.eval.trials import concurrent_users_interference
from repro.scenarios import (
    BUILTIN_SCENARIOS,
    AttackerScript,
    ConcurrentSessionInterference,
    FleetDevice,
    NoiseBand,
    ScenarioDoc,
    ScenarioError,
    ScriptedAttacker,
    SessionScript,
    WalkStation,
    WallSpec,
    compile_scenario,
    get_scenario,
    load_scenario,
    scenario_from_dict,
    scenario_to_dict,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = REPO_ROOT / "examples" / "scenarios"

PAPER_DISTANCES = (0.5, 1.0, 1.5, 2.0)


def minimal_doc(**overrides) -> ScenarioDoc:
    defaults = dict(
        name="test-scene",
        environment="office",
        fleet=(
            FleetDevice("verifier", 0.0, 0.0, role="verifier"),
            FleetDevice("prover", 1.0, 0.0, role="prover"),
        ),
        trials=2,
    )
    defaults.update(overrides)
    return ScenarioDoc(**defaults)


# ----------------------------------------------------------------------
# Paper parity: compiled builtin scenes == hand-built experiment tables
# ----------------------------------------------------------------------


def test_paper_scenes_compile_byte_identical_to_fig1_plan():
    hand_built = TrialPlan(
        "fig1",
        [
            TrialSpec(
                environment=environment,
                distance_m=distance,
                n_trials=10,
                seed=0,
                key=f"{environment.name}:{distance}",
            )
            for environment in FIGURE1_ENVIRONMENTS
            for distance in PAPER_DISTANCES
        ],
    )
    compiled = TrialPlan.merge(
        "fig1",
        [
            compile_scenario(get_scenario(f"paper-{env.name}")).plan
            for env in FIGURE1_ENVIRONMENTS
        ],
    )
    assert [s.key for s in compiled.specs] == [s.key for s in hand_built.specs]
    assert [s.fingerprint() for s in compiled.specs] == [
        s.fingerprint() for s in hand_built.specs
    ]
    assert [s.trial_seed(0) for s in compiled.specs] == [
        s.trial_seed(0) for s in hand_built.specs
    ]


def test_paper_multiuser_compiles_byte_identical_to_fig2a_plan():
    hand_built = TrialPlan(
        "fig2a",
        [
            TrialSpec(
                environment="office",
                distance_m=distance,
                n_trials=10,
                seed=0,
                interference_factory=concurrent_users_interference(
                    n_other_pairs=2
                ),
                key=f"multiuser:{distance}",
            )
            for distance in PAPER_DISTANCES
        ],
    )
    compiled = compile_scenario(get_scenario("paper-multiuser")).plan
    assert [s.key for s in compiled.specs] == [s.key for s in hand_built.specs]
    assert [s.fingerprint() for s in compiled.specs] == [
        s.fingerprint() for s in hand_built.specs
    ]


def test_compiled_paper_cell_outcomes_are_byte_identical():
    # Fingerprint equality promises byte-identical results; verify it on
    # a real (small) cell through the full pipeline.
    hand_built = TrialSpec(
        environment=FIGURE1_ENVIRONMENTS[0], distance_m=0.5, n_trials=2, seed=0
    )
    compiled_spec = compile_scenario(
        get_scenario("paper-office"), trials=2
    ).plan.specs[0]
    assert compiled_spec.fingerprint() == hand_built.fingerprint()
    ours = run_cell_spec(compiled_spec)
    theirs = run_cell_spec(hand_built)
    assert ours.stats.errors_m == theirs.stats.errors_m
    assert [
        canonical_outcome_json(outcome_to_json(o)) for o in ours.outcomes
    ] == [canonical_outcome_json(outcome_to_json(o)) for o in theirs.outcomes]


def test_compiling_is_deterministic_across_processes():
    script = (
        "from repro.scenarios import compile_scenario, get_scenario, "
        "load_scenario\n"
        "import json, sys\n"
        "prints = {}\n"
        "for name in ('paper-office', 'paper-multiuser', 'home-reauth', "
        "'home-hidden-command', 'home-multi-device'):\n"
        "    plan = compile_scenario(get_scenario(name)).plan\n"
        "    prints[name] = [s.fingerprint() for s in plan.specs]\n"
        "doc = load_scenario(sys.argv[1])\n"
        "prints['example'] = [s.fingerprint() "
        "for s in compile_scenario(doc).plan.specs]\n"
        "print(json.dumps(prints))\n"
    )
    example = EXAMPLES / "apartment_attack.json"
    result = subprocess.run(
        [sys.executable, "-c", script, str(example)],
        capture_output=True,
        text=True,
        check=True,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )
    other_process = json.loads(result.stdout)
    for name, fingerprints in other_process.items():
        if name == "example":
            plan = compile_scenario(load_scenario(example)).plan
        else:
            plan = compile_scenario(get_scenario(name)).plan
        assert [s.fingerprint() for s in plan.specs] == fingerprints, name


# ----------------------------------------------------------------------
# New workloads
# ----------------------------------------------------------------------


def test_home_reauth_compiles_timed_epochs_with_noise_bands():
    compiled = compile_scenario(get_scenario("home-reauth"))
    assert len(compiled.plan) == 8
    # 90-minute cadence from 8:00: hours advance 1.5 h per epoch.
    assert [cell.hour for cell in compiled.cells] == [
        pytest.approx(8.0 + 1.5 * epoch) for epoch in range(8)
    ]
    # Walk stations expand by hold: 4× desk, 2× kitchen, 2× couch.
    assert [cell.distance_m for cell in compiled.cells] == [
        pytest.approx(d)
        for d in [1.0] * 4 + [(3.0**2 + 1.0**2) ** 0.5] * 2 + [2.5] * 2
    ]
    # Only the 19:30 couch epoch falls in the 18–23 h band.
    assert [cell.noise_scale for cell in compiled.cells] == [
        1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.4,
    ]
    scaled_spec = compiled.plan.specs[-1]
    assert not isinstance(scaled_spec.environment, str)
    assert scaled_spec.environment.name == "home(noise×1.4)"
    assert not compiled.cells[-1].servable
    assert all(cell.servable for cell in compiled.cells[:-1])
    # Every timed epoch measures a fresh world: distinct derived seeds.
    seeds = [spec.seed for spec in compiled.plan.specs]
    assert len(set(seeds)) == len(seeds)
    doc = get_scenario("home-reauth")
    assert all(seed != doc.seed for seed in seeds)


def test_home_hidden_command_compiles_wall_and_attacker():
    compiled = compile_scenario(get_scenario("home-hidden-command"))
    (spec,) = compiled.plan.specs
    assert spec.distance_m == 6.0
    assert spec.room is not None and len(spec.room.walls) == 1
    wall = spec.room.walls[0]
    # The wall at x=4 separates verifier (origin) and prover (6, 0) in
    # the pair frame too (the transform here is the identity).
    assert wall.start.x == pytest.approx(4.0)
    assert isinstance(spec.interference_factory, ScriptedAttacker)
    assert spec.interference_factory.position == (
        pytest.approx(1.5),
        pytest.approx(0.5),
    )
    assert not compiled.cells[0].servable


def test_home_multi_device_compiles_concurrent_verifier_sessions():
    compiled = compile_scenario(get_scenario("home-multi-device"))
    assert [cell.verifier for cell in compiled.cells] == [
        "speaker", "thermostat", "tv",
    ]
    for spec, cell in zip(compiled.plan.specs, compiled.cells):
        factory = spec.interference_factory
        assert isinstance(factory, ConcurrentSessionInterference)
        # Each cell carries the *other two* verifiers' sessions, and
        # every concurrent pair targets the shared prover's position.
        assert len(factory.pairs) == 2
        for (_, prover_xy) in factory.pairs:
            assert (prover_xy[0] ** 2 + prover_xy[1] ** 2) ** 0.5 == (
                pytest.approx(cell.distance_m)
            )
    # Verifier-major keys include the verifier name.
    assert compiled.cells[0].key.startswith("home-multi-device:speaker:")


def test_new_workloads_run_end_to_end():
    # One cheap cell per new workload through the real pipeline.
    for name in ("home-reauth", "home-hidden-command", "home-multi-device"):
        compiled = compile_scenario(get_scenario(name), trials=1)
        cell = run_cell_spec(compiled.plan.specs[0])
        assert cell.stats.trials == 1


# ----------------------------------------------------------------------
# Pair-frame geometry
# ----------------------------------------------------------------------


def test_rotated_pair_compiles_into_pair_frame():
    # Verifier at (1, 1), prover straight above at (1, 3): the pair
    # frame rotates the world 90°.  A wall crossing between them must
    # still separate the origin from (d, 0) after the transform.
    doc = minimal_doc(
        fleet=(
            FleetDevice("v", 1.0, 1.0, role="verifier"),
            FleetDevice("p", 1.0, 3.0, role="prover"),
        ),
        walls=(WallSpec(0.0, 2.0, 2.0, 2.0),),
    )
    (spec,) = compile_scenario(doc).plan.specs
    assert spec.distance_m == pytest.approx(2.0)
    from repro.sim.geometry import Point

    (wall,) = spec.room.walls
    assert wall.blocks(Point(0.0, 0.0), Point(spec.distance_m, 0.0))
    # The wall's world y=2 plane maps to the pair frame's x=1 plane.
    assert wall.start.x == pytest.approx(1.0)
    assert wall.end.x == pytest.approx(1.0)


def test_coincident_verifier_and_prover_is_rejected():
    doc = minimal_doc(
        fleet=(
            FleetDevice("v", 1.0, 1.0, role="verifier"),
            FleetDevice("p", 2.0, 2.0, role="prover"),
        ),
        walk=(WalkStation(1.0, 1.0),),
    )
    with pytest.raises(ScenarioError, match="coincide"):
        compile_scenario(doc)


def test_prover_beyond_pairing_range_is_rejected():
    with pytest.raises(ScenarioError, match="Bluetooth pairing range"):
        compile_scenario(minimal_doc(walk=(WalkStation(12.0, 0.0),)))
    edge = compile_scenario(minimal_doc(walk=(WalkStation(0.0, 10.0),)))
    assert [cell.distance_m for cell in edge.cells] == [10.0]


def test_untimed_duplicate_stations_are_rejected():
    doc = minimal_doc(walk=(WalkStation(1.0, 0.0), WalkStation(1.0, 0.0)))
    with pytest.raises(ScenarioError, match="duplicate cell key"):
        compile_scenario(doc)
    # The same walk under a cadence is fine: epochs get distinct keys.
    timed = minimal_doc(
        walk=(WalkStation(1.0, 0.0), WalkStation(1.0, 0.0)),
        session=SessionScript(cadence_s=600.0),
    )
    assert len(compile_scenario(timed).plan) == 2


def test_compile_overrides_trials_and_seed():
    compiled = compile_scenario(get_scenario("paper-office"), trials=3, seed=9)
    assert all(spec.n_trials == 3 for spec in compiled.plan.specs)
    assert all(spec.seed == 9 for spec in compiled.plan.specs)


# ----------------------------------------------------------------------
# Document validation and serialization
# ----------------------------------------------------------------------


def test_document_validation_errors():
    with pytest.raises(ScenarioError, match="exactly one prover"):
        minimal_doc(fleet=(FleetDevice("v", 0.0, 0.0, role="verifier"),))
    with pytest.raises(ScenarioError, match="at least one verifier"):
        minimal_doc(fleet=(FleetDevice("p", 0.0, 0.0, role="prover"),))
    with pytest.raises(ScenarioError, match="unique"):
        minimal_doc(
            fleet=(
                FleetDevice("x", 0.0, 0.0, role="verifier"),
                FleetDevice("x", 1.0, 0.0, role="prover"),
            )
        )
    with pytest.raises(ScenarioError, match="unknown environment"):
        minimal_doc(environment="submarine")
    with pytest.raises(ScenarioError, match="role"):
        FleetDevice("x", 0.0, 0.0, role="observer")
    with pytest.raises(ScenarioError, match="source"):
        minimal_doc(attacker=AttackerScript(device="verifier"))
    with pytest.raises(ScenarioError, match="not in the fleet"):
        minimal_doc(attacker=AttackerScript(device="ghost"))
    with pytest.raises(ScenarioError, match="timed session"):
        minimal_doc(noise=(NoiseBand(18.0, 23.0, 1.5),))
    with pytest.raises(ScenarioError, match="at least two verifiers"):
        minimal_doc(concurrent_verifiers=True)
    with pytest.raises(ScenarioError, match="hours"):
        NoiseBand(start_hour=5.0, end_hour=3.0)


def test_multiple_interference_scripts_are_rejected():
    doc = minimal_doc(
        fleet=(
            FleetDevice("v", 0.0, 0.0, role="verifier"),
            FleetDevice("p", 1.0, 0.0, role="prover"),
            FleetDevice("tv", 0.5, 0.5, role="source"),
        ),
        attacker=AttackerScript(device="tv"),
        concurrent_pairs=1,
    )
    with pytest.raises(ScenarioError, match="one per scenario"):
        compile_scenario(doc)


def test_dict_round_trip_preserves_documents():
    for doc in BUILTIN_SCENARIOS.values():
        assert scenario_from_dict(scenario_to_dict(doc)) == doc


def test_unknown_keys_are_rejected():
    data = scenario_to_dict(get_scenario("paper-office"))
    data["fleeet"] = []
    with pytest.raises(ScenarioError, match="fleeet"):
        scenario_from_dict(data)
    bad_device = scenario_to_dict(get_scenario("paper-office"))
    bad_device["fleet"][0]["speed"] = 3
    with pytest.raises(ScenarioError, match="speed"):
        scenario_from_dict(bad_device)


def test_load_scenario_toml_and_json(tmp_path):
    toml_doc = load_scenario(EXAMPLES / "cafe_reauth.toml")
    assert toml_doc.name == "cafe-reauth"
    assert toml_doc.session.timed
    compiled = compile_scenario(toml_doc)
    assert len(compiled.plan) == 5
    # Epochs at 15:00-17:00 every 30 min; only the last one reaches the
    # 17:00 evening band.
    assert [cell.noise_scale for cell in compiled.cells] == [
        1.0, 1.0, 1.0, 1.0, 1.3,
    ]

    json_doc = load_scenario(EXAMPLES / "apartment_attack.json")
    assert isinstance(
        compile_scenario(json_doc).plan.specs[0].interference_factory,
        ScriptedAttacker,
    )
    assert compile_scenario(json_doc).plan.specs[0].interference_factory.gain == 1.5

    unsupported = tmp_path / "scene.yaml"
    unsupported.write_text("name: x\n")
    with pytest.raises(ScenarioError, match="unsupported"):
        load_scenario(unsupported)
    with pytest.raises(ScenarioError, match="cannot read"):
        load_scenario(tmp_path / "missing.toml")
    broken = tmp_path / "broken.toml"
    broken.write_text("name = ")
    with pytest.raises(ScenarioError, match="invalid TOML"):
        load_scenario(broken)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


def test_cli_scenario_list_and_validate(capsys):
    from repro.cli import main

    assert main(["scenario", "list"]) == 0
    out = capsys.readouterr().out
    for name in BUILTIN_SCENARIOS:
        assert name in out

    assert (
        main(
            [
                "scenario",
                "validate",
                "paper-office",
                str(EXAMPLES / "cafe_reauth.toml"),
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "paper-office: ok — 4 cells" in out
    assert "cafe_reauth.toml: ok — 5 cells" in out


def test_cli_scenario_validate_reports_invalid_documents(tmp_path, capsys):
    from repro.cli import main

    bad = tmp_path / "bad.toml"
    bad.write_text('name = "x"\nenvironment = "submarine"\n')
    assert main(["scenario", "validate", str(bad)]) == 1
    assert "INVALID" in capsys.readouterr().out


def test_cli_scenario_run_executes_a_plan(capsys):
    from repro.cli import main

    assert main(["scenario", "run", "home-hidden-command", "--trials", "1"]) == 0
    out = capsys.readouterr().out
    assert "home-hidden-command:6.0" in out
    assert "completed" in out

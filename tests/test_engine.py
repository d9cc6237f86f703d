"""Tests for the plan-based trial engine: determinism, caching, dispatch."""

from __future__ import annotations

import json

import pytest

from repro.acoustics.environment import get_environment
from repro.baselines.cc_detector import ActionCCRanging
from repro.core.config import ProtocolConfig
from repro.eval.engine import (
    MeasurementCache,
    TrialEngine,
    TrialPlan,
    TrialSpec,
    build_pair_world,
    get_engine,
    run_cell_spec,
    use_engine,
)
from repro.eval.trials import concurrent_users_interference, run_ranging_cell
from repro.sim.geometry import Room
from repro.sim.rng import derive_seed


def _quiet_plan(n_trials: int = 2, seed: int = 9) -> TrialPlan:
    return TrialPlan(
        "test",
        [
            TrialSpec("quiet_lab", 0.6, n_trials, seed, key="a"),
            TrialSpec("quiet_lab", 0.9, n_trials, seed, key="b"),
            TrialSpec("quiet_lab", 1.2, n_trials, seed, key="c"),
        ],
    )


def _errors(cells) -> list[list[float]]:
    return [cell.stats.errors_m for cell in cells]


# ----------------------------------------------------------------------
# Spec fingerprints
# ----------------------------------------------------------------------


def test_fingerprint_stable_and_content_addressed():
    a = TrialSpec("office", 1.0, 4, 0)
    b = TrialSpec("office", 1.0, 4, 0)
    assert a.fingerprint() == b.fingerprint()
    assert a.fingerprint() != TrialSpec("office", 1.5, 4, 0).fingerprint()
    assert a.fingerprint() != TrialSpec("office", 1.0, 5, 0).fingerprint()
    assert a.fingerprint() != TrialSpec("office", 1.0, 4, 1).fingerprint()
    assert a.fingerprint() != TrialSpec("home", 1.0, 4, 0).fingerprint()


def test_fingerprint_ignores_presentation_key():
    assert (
        TrialSpec("office", 1.0, 4, 0, key="x").fingerprint()
        == TrialSpec("office", 1.0, 4, 0, key="y").fingerprint()
    )


def test_fingerprint_normalizes_registered_environments():
    by_name = TrialSpec("office", 1.0, 4, 0)
    by_object = TrialSpec(get_environment("office"), 1.0, 4, 0)
    assert by_name.fingerprint() == by_object.fingerprint()
    scaled = TrialSpec(
        get_environment("office").with_noise_scale(2.0), 1.0, 4, 0
    )
    assert scaled.fingerprint() != by_name.fingerprint()


def test_fingerprint_distinguishes_overrides():
    base = TrialSpec("office", 1.0, 2, 0)
    with_config = TrialSpec("office", 1.0, 2, 0, config=ProtocolConfig(theta=3))
    with_room = TrialSpec(
        "office", 1.0, 2, 0, room=Room.with_dividing_wall(x=0.5)
    )
    with_interference = TrialSpec(
        "office", 1.0, 2, 0,
        interference_factory=concurrent_users_interference(2),
    )
    with_engine = TrialSpec(
        "office", 1.0, 2, 0, engine=ActionCCRanging(ProtocolConfig())
    )
    prints = {
        s.fingerprint()
        for s in (base, with_config, with_room, with_interference, with_engine)
    }
    assert len(prints) == 5
    assert (
        concurrent_users_interference(2) == concurrent_users_interference(2)
    )
    assert (
        TrialSpec(
            "office", 1.0, 2, 0,
            interference_factory=concurrent_users_interference(3),
        ).fingerprint()
        != with_interference.fingerprint()
    )


def _factory_a(world, rng):
    return []


def _factory_b(world, rng):
    return []


def test_fingerprint_distinguishes_plain_functions():
    fa = TrialSpec("office", 1.0, 4, 0, interference_factory=_factory_a)
    fb = TrialSpec("office", 1.0, 4, 0, interference_factory=_factory_b)
    assert fa.fingerprint() != fb.fingerprint()
    # Same function twice is still content-addressed.
    fa2 = TrialSpec("office", 1.0, 4, 0, interference_factory=_factory_a)
    assert fa.fingerprint() == fa2.fingerprint()


def test_fingerprint_never_shares_closures_or_lambdas():
    def make(n):
        def closure(world, rng):
            return [n]

        return closure

    c2 = TrialSpec("office", 1.0, 4, 0, interference_factory=make(2))
    c3 = TrialSpec("office", 1.0, 4, 0, interference_factory=make(3))
    assert c2.fingerprint() != c3.fingerprint()
    l1 = TrialSpec("office", 1.0, 4, 0, interference_factory=lambda w, r: [])
    l2 = TrialSpec("office", 1.0, 4, 0, interference_factory=lambda w, r: [])
    assert l1.fingerprint() != l2.fingerprint()


def test_closure_fingerprints_survive_id_reuse():
    # A dead closure's memory address can be recycled for the next one;
    # the per-instance token must not be.
    def make(n):
        def closure(world, rng):
            return [n]

        return closure

    import gc

    first = make(1)
    fp_first = TrialSpec(
        "office", 1.0, 4, 0, interference_factory=first
    ).fingerprint()
    del first
    gc.collect()
    second = make(2)
    fp_second = TrialSpec(
        "office", 1.0, 4, 0, interference_factory=second
    ).fingerprint()
    assert fp_first != fp_second


def test_trial_seed_matches_legacy_derivation():
    spec = TrialSpec("quiet_lab", 0.8, 3, 42)
    for trial in range(3):
        assert spec.trial_seed(trial) == derive_seed(
            42, f"quiet_lab:0.8:{trial}"
        )


# ----------------------------------------------------------------------
# Determinism: serial vs parallel vs legacy
# ----------------------------------------------------------------------


def test_plan_results_identical_across_jobs():
    plan = _quiet_plan()
    serial = TrialEngine(jobs=1).run_plan(plan)
    with TrialEngine(jobs=2, chunk_size=1) as two:
        parallel2 = two.run_plan(plan)
    with TrialEngine(jobs=3) as three:
        parallel3 = three.run_plan(plan)
    assert _errors(serial) == _errors(parallel2) == _errors(parallel3)
    assert [c.stats.not_present for c in serial] == [
        c.stats.not_present for c in parallel2
    ]


def test_plan_matches_single_cell_runner():
    plan = _quiet_plan()
    cells = TrialEngine(jobs=1).run_plan(plan)
    for spec, cell in zip(plan.specs, cells):
        legacy = run_ranging_cell(
            spec.environment, spec.distance_m, spec.n_trials, spec.seed
        )
        assert legacy.stats.errors_m == cell.stats.errors_m


def test_run_cell_spec_is_order_independent():
    spec = TrialSpec("quiet_lab", 0.7, 2, 5)
    alone = run_cell_spec(spec)
    after_other = run_cell_spec(TrialSpec("quiet_lab", 1.1, 2, 5))
    again = run_cell_spec(spec)
    assert alone.stats.errors_m == again.stats.errors_m
    assert alone.stats.errors_m != after_other.stats.errors_m


# ----------------------------------------------------------------------
# Caching
# ----------------------------------------------------------------------


def test_cache_hit_equals_fresh_computation():
    plan = _quiet_plan()
    engine = TrialEngine(jobs=1)
    first = engine.run_plan(plan)
    assert engine.counters.cells_executed == len(plan.specs)
    second = engine.run_plan(plan)
    assert engine.counters.cells_executed == len(plan.specs)  # no recompute
    assert engine.counters.cells_cached == len(plan.specs)
    fresh = TrialEngine(jobs=1).run_plan(plan)
    assert _errors(second) == _errors(first) == _errors(fresh)


def test_duplicate_specs_in_one_plan_computed_once():
    spec = TrialSpec("quiet_lab", 0.8, 2, 3)
    engine = TrialEngine(jobs=1)
    cells = engine.run_plan(TrialPlan("dup", [spec, spec, spec]))
    assert len(cells) == 3
    assert engine.counters.cells_executed == 1
    assert cells[0].stats.errors_m == cells[1].stats.errors_m


def test_cache_stats_count_lookups():
    cache = MeasurementCache()
    found, _ = cache.get("missing")
    assert not found
    cache.put("k", 1)
    found, value = cache.get("k")
    assert found and value == 1
    assert cache.stats.misses == 1
    assert cache.stats.hits == 1


def test_cache_eviction_respects_max_entries():
    cache = MeasurementCache(max_entries=2)
    cache.put("a", 1)
    cache.put("b", 2)
    cache.put("c", 3)
    assert len(cache) == 2
    assert cache.get("a") == (False, None)
    assert cache.get("c") == (True, 3)


def test_mutating_a_cached_result_does_not_poison_the_cache():
    spec = TrialSpec("quiet_lab", 0.8, 2, 6)
    engine = TrialEngine(jobs=1)
    pristine = [e for e in engine.run_cell(spec).stats.errors_m]
    served = engine.run_cell(spec)
    served.stats.errors_m.clear()
    served.outcomes.clear()
    assert engine.run_cell(spec).stats.errors_m == pristine


def test_duplicate_plan_cells_are_independent_objects():
    spec = TrialSpec("quiet_lab", 0.8, 2, 3)
    engine = TrialEngine(jobs=1)
    first, second = engine.run_plan(TrialPlan("dup", [spec, spec]))
    first.stats.errors_m.clear()
    assert second.stats.errors_m  # untouched by the sibling's mutation


def test_corrupt_disk_cache_file_is_a_miss_not_a_crash(tmp_path):
    cache = MeasurementCache(disk_dir=tmp_path)
    cache.put("k", {"v": 1}, persist=True)
    path = next(tmp_path.glob("*.json"))
    path.write_text("{truncated")

    fresh = MeasurementCache(disk_dir=tmp_path)
    assert fresh.get("k") == (False, None)
    # Recompute-and-put heals the file.
    assert fresh.get_or_compute("k", lambda: {"v": 2}, persist=True) == {"v": 2}
    assert MeasurementCache(disk_dir=tmp_path).get("k") == (True, {"v": 2})


def test_disk_cache_roundtrip(tmp_path):
    first = MeasurementCache(disk_dir=tmp_path)
    first.put("sigmas:test", {"office": 0.05}, persist=True)
    files = list(tmp_path.glob("*.json"))
    assert len(files) == 1
    assert json.loads(files[0].read_text()) == {"office": 0.05}

    second = MeasurementCache(disk_dir=tmp_path)
    found, value = second.get("sigmas:test")
    assert found and value == {"office": 0.05}
    assert second.stats.disk_hits == 1


def test_measure_sigmas_served_from_shared_cache():
    from repro.eval.experiments.sigma_measurement import measure_sigmas

    with use_engine(TrialEngine(jobs=1)) as engine:
        first = measure_sigmas(trials=2, seed=21)
        executed = engine.counters.trials_executed
        assert executed > 0
        second = measure_sigmas(trials=2, seed=21)
        assert engine.counters.trials_executed == executed  # no new work
        assert engine.counters.trials_cached >= 40  # 20 cells × 2 trials
        assert second == first
        assert set(first) == {
            "office", "home", "street", "restaurant", "multiple users"
        }


# ----------------------------------------------------------------------
# Generic task dispatch
# ----------------------------------------------------------------------


def test_map_tasks_preserves_order_across_jobs():
    from repro.eval.experiments.security import _attack_trial

    tasks = [
        (name, trial, 17)
        for name in ("zero-effort", "guessing-replay", "all-frequency-spoof")
        for trial in range(2)
    ]
    serial = TrialEngine(jobs=1).map_tasks(_attack_trial, tasks)
    with TrialEngine(jobs=2, chunk_size=1) as engine:
        parallel = engine.map_tasks(_attack_trial, tasks)
    assert serial == parallel
    assert all(serial)


# ----------------------------------------------------------------------
# Engine context and accounting
# ----------------------------------------------------------------------


def test_use_engine_scopes_the_ambient_engine():
    outer = get_engine()
    scoped = TrialEngine(jobs=1)
    with use_engine(scoped):
        assert get_engine() is scoped
    assert get_engine() is outer


def test_engine_rejects_bad_jobs():
    with pytest.raises(ValueError):
        TrialEngine(jobs=0)
    with pytest.raises(ValueError):
        TrialEngine(jobs=2, chunk_size=0)


def test_bound_method_fingerprints_include_instance_state():
    from repro.eval.trials import ConcurrentUsersInterference

    two = TrialSpec(
        "office", 1.0, 2, 0,
        interference_factory=ConcurrentUsersInterference(2).__call__,
    )
    five = TrialSpec(
        "office", 1.0, 2, 0,
        interference_factory=ConcurrentUsersInterference(5).__call__,
    )
    assert two.fingerprint() != five.fingerprint()


def test_counters_since_reports_delta():
    engine = TrialEngine(jobs=1)
    before = engine.counters.snapshot()
    engine.run_plan(TrialPlan("one", [TrialSpec("quiet_lab", 0.8, 2, 1)]))
    delta = engine.counters.since(before)
    assert delta.plans == 1
    assert delta.trials_executed == 2
    assert delta.elapsed_s > 0


def test_run_experiment_records_engine_accounting():
    from repro.eval.registry import run_experiment

    with use_engine(TrialEngine(jobs=1)):
        report = run_experiment("range_limit", trials=2, quick=True)
    assert report.data["engine:trials_executed"] > 0
    assert report.data["engine:elapsed_s"] > 0
    assert report.data["engine:jobs"] == 1


def test_cli_jobs_flag_parses_and_runs(capsys):
    from repro.cli import build_parser, main

    args = build_parser().parse_args(["run-all", "--jobs", "3"])
    assert args.jobs == 3
    args = build_parser().parse_args(["run", "wall", "--quick"])
    assert args.jobs is None  # auto

    assert main(["run", "wall", "--quick", "--trials", "2", "--jobs", "1"]) == 0
    out = capsys.readouterr().out
    assert "wall study" in out
    assert "trials/s" in out


def test_build_pair_world_reexport_geometry():
    world = build_pair_world("quiet_lab", 1.25, seed=3)
    assert world.distance_between("auth-device", "vouch-device") == pytest.approx(
        1.25
    )

"""SessionSpec: validation, JSON round-trip, resolution, workloads."""

import dataclasses
import json

import pytest

from repro.api.spec import SessionSpec, SpecValidationError
from repro.api.workloads import (
    WorkloadError,
    known_workloads,
    register_workload,
    resolve_workload,
)
from repro.core.merge import DenseLabelScheme, HierarchicalLabelScheme
from repro.core.sampling import SamplingConfig
from repro.launch.ciod import BglSystemLauncher
from repro.launch.launchmon import LaunchMonLauncher
from repro.launch.rsh import SerialRshLauncher


class TestValidation:
    def test_minimal_spec(self):
        spec = SessionSpec(machine="bgl", daemons=4)
        assert spec.mode == "co" and spec.workload == "ring_hang"

    @pytest.mark.parametrize("changes", [
        {"machine": "cray"},
        {"daemons": 0},
        {"daemons": "four"},
        {"mode": "smp"},
        {"scheme": "sparse"},
        {"launcher": "slurm"},
        {"staging": "gpfs"},
        {"mapping": "random"},
        {"mapping": "shuffled"},  # needs an rng no spec can carry
        {"stop_after": "teardown"},
    ])
    def test_bad_fields_rejected(self, changes):
        base = dict(machine="bgl", daemons=4)
        base.update(changes)
        with pytest.raises(SpecValidationError):
            SessionSpec(**base)

    def test_shuffled_mapping_rejected_on_every_way_in(self):
        spec = SessionSpec(machine="bgl", daemons=4)
        with pytest.raises(SpecValidationError, match="mapping"):
            SessionSpec.from_dict({**spec.to_dict(), "mapping": "shuffled"})
        with pytest.raises(SpecValidationError, match="mapping"):
            spec.replace(mapping="shuffled")

    def test_frozen(self):
        spec = SessionSpec(machine="bgl", daemons=4)
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.daemons = 8

    def test_dead_daemons_normalized(self):
        spec = SessionSpec(machine="bgl", daemons=8,
                           dead_daemons=(5, 1, 3))
        assert spec.dead_daemons == (1, 3, 5)

    def test_replace_validates(self):
        spec = SessionSpec(machine="bgl", daemons=4)
        assert spec.replace(daemons=8).daemons == 8
        with pytest.raises(SpecValidationError):
            spec.replace(machine="cray")

    def test_label_derivation(self):
        assert SessionSpec(machine="bgl", daemons=4).label == \
            "bgl-4d-co-ring_hang"
        assert SessionSpec(machine="atlas", daemons=4,
                           name="mine").label == "mine"


class TestRoundTrip:
    def test_default_spec_round_trips(self):
        spec = SessionSpec(machine="bgl", daemons=16)
        assert SessionSpec.from_dict(spec.to_dict()) == spec
        assert SessionSpec.from_json(spec.to_json()) == spec

    def test_fully_loaded_spec_round_trips(self):
        spec = SessionSpec(
            machine="atlas", daemons=32, mode="vn",
            machine_options={"libraries_on_nfs": False},
            topology="4x4", scheme="dense", launcher="launchmon",
            staging="lustre", use_sbrs=True,
            sampling=SamplingConfig(num_samples=3, jitter_sigma=0.0,
                                    symtab_cached=False),
            num_samples=3, mapping="block", dead_daemons=(2, 7),
            seed=99, workload="uniform:4:12", stop_after="merge",
            name="loaded")
        again = SessionSpec.from_json(spec.to_json())
        assert again == spec
        assert again.sampling == spec.sampling
        assert isinstance(again.sampling, SamplingConfig)

    def test_json_is_plain_types(self):
        spec = SessionSpec(machine="bgl", daemons=4,
                           sampling=SamplingConfig(), dead_daemons=(1,))
        data = json.loads(spec.to_json())
        assert data["spec_version"] == 1
        assert data["dead_daemons"] == [1]
        assert isinstance(data["sampling"], dict)

    def test_unknown_field_rejected(self):
        with pytest.raises(SpecValidationError, match="unknown spec fields"):
            SessionSpec.from_dict({"machine": "bgl", "daemons": 4,
                                   "gpus": 8})

    def test_unknown_sampling_field_rejected(self):
        with pytest.raises(SpecValidationError, match="sampling"):
            SessionSpec.from_dict({"machine": "bgl", "daemons": 4,
                                   "sampling": {"warp_factor": 9}})

    def test_future_spec_version_rejected(self):
        with pytest.raises(SpecValidationError, match="spec_version"):
            SessionSpec.from_dict({"spec_version": 99, "machine": "bgl",
                                   "daemons": 4})

    def test_invalid_json_rejected(self):
        with pytest.raises(SpecValidationError, match="invalid JSON"):
            SessionSpec.from_json("{nope")

    def test_save_and_load_file(self, tmp_path):
        spec = SessionSpec(machine="atlas", daemons=8, seed=3)
        path = spec.save(tmp_path / "spec.json")
        assert SessionSpec.load(path) == spec


class TestResolution:
    def test_build_machine_atlas_options(self):
        spec = SessionSpec(machine="atlas", daemons=8,
                           machine_options={"libraries_on_nfs": False})
        machine = spec.build_machine()
        assert machine.total_tasks == 64
        assert "libc.so.6" not in machine.binary.shared_libraries

    def test_build_machine_bgl_vn(self):
        machine = SessionSpec(machine="bgl", daemons=4,
                              mode="vn").build_machine()
        assert machine.total_tasks == 4 * 128

    def test_build_topology(self):
        spec = SessionSpec(machine="bgl", daemons=8, topology="2x4")
        topo = spec.build_topology(spec.build_machine())
        assert topo.num_daemons == 8
        assert SessionSpec(machine="bgl", daemons=8).build_topology(
            spec.build_machine()) is None

    def test_build_scheme(self):
        spec = SessionSpec(machine="bgl", daemons=4, scheme="dense")
        assert isinstance(spec.build_scheme(spec.build_machine()),
                          DenseLabelScheme)
        spec = SessionSpec(machine="bgl", daemons=4)
        assert isinstance(spec.build_scheme(spec.build_machine()),
                          HierarchicalLabelScheme)

    @pytest.mark.parametrize("launcher,expected", [
        ("launchmon", LaunchMonLauncher),
        ("rsh", SerialRshLauncher),
        ("bgl-system", BglSystemLauncher),
        ("bgl-system-prepatch", BglSystemLauncher),
    ])
    def test_build_launcher(self, launcher, expected):
        spec = SessionSpec(machine="bgl", daemons=4, launcher=launcher)
        assert isinstance(spec.build_launcher(spec.build_machine()),
                          expected)

    def test_auto_launcher_is_none(self):
        spec = SessionSpec(machine="bgl", daemons=4)
        assert spec.build_launcher(spec.build_machine()) is None

    def test_build_frontend(self):
        fe = SessionSpec(machine="bgl", daemons=4, topology="flat",
                         seed=5).build_frontend()
        assert fe.machine.num_daemons == 4
        assert fe.seed == 5
        assert fe.topology.depth == 1


class TestWorkloads:
    def test_builtins_registered(self):
        assert {"ring_hang", "uniform", "distinct"} <= \
            set(known_workloads())

    def test_ring_hang_default_rank(self):
        state_of = resolve_workload("ring_hang", 16)
        assert state_of(1).kind == "stall"
        assert state_of(2).kind == "waitall"
        assert state_of(0).kind == "barrier"

    def test_ring_hang_explicit_rank(self):
        state_of = resolve_workload("ring_hang:5", 16)
        assert state_of(5).kind == "stall"

    def test_uniform_uses_session_seed(self):
        a = resolve_workload("uniform:4", 64, seed=1)
        b = resolve_workload("uniform:4", 64, seed=1)
        assert [a(r).kind for r in range(64)] == \
            [b(r).kind for r in range(64)]

    def test_distinct(self):
        state_of = resolve_workload("distinct", 8)
        assert state_of(3).where != state_of(4).where

    @pytest.mark.parametrize("bad", [
        "nope", "ring_hang:1:2", "uniform", "uniform:x", "distinct:3"])
    def test_bad_ids_rejected(self, bad):
        with pytest.raises(WorkloadError):
            resolve_workload(bad, 16)

    def test_register_custom(self):
        register_workload(
            "all_barrier",
            lambda args, total, seed: resolve_workload("uniform:1", total))
        state_of = resolve_workload("all_barrier", 8)
        assert state_of(0).kind == "barrier"

    def test_register_rejects_colon(self):
        with pytest.raises(WorkloadError):
            register_workload("a:b", lambda args, total, seed: None)

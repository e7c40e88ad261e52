"""Tests for the first-class workload registry."""

import pytest

from repro.workloads import VectorAdd, Workload
from repro.workloads.registry import (
    RESERVED_NAMES,
    UnknownWorkloadError,
    WorkloadRegistrationError,
    available_workloads,
    get_workload,
    get_workload_factory,
    register,
    unregister,
)

BUILTINS = ("add", "bnn", "conv", "dot", "gemv-trace", "matvec", "mult")


@pytest.fixture
def scratch_name():
    """A throwaway registration name, unregistered on teardown."""
    name = "pytest-scratch"
    yield name
    try:
        unregister(name)
    except UnknownWorkloadError:
        pass


class TestResolution:
    def test_builtins_are_registered(self):
        assert set(BUILTINS) <= set(available_workloads())

    def test_get_workload_builds_fresh_instances(self):
        first = get_workload("add")
        second = get_workload("add")
        assert isinstance(first, Workload)
        assert first is not second

    def test_factory_identity_is_stable(self):
        assert get_workload_factory("add") is get_workload_factory("add")

    def test_builtin_signatures_match_direct_construction(self):
        assert get_workload("add").signature == VectorAdd(bits=32).signature

    def test_unknown_name_raises_keyerror_subclass(self):
        with pytest.raises(UnknownWorkloadError):
            get_workload("no-such-kernel")
        with pytest.raises(KeyError):
            get_workload("no-such-kernel")

    def test_unknown_message_has_suggestion_and_provenance(self):
        with pytest.raises(UnknownWorkloadError) as excinfo:
            get_workload("mutl")
        message = str(excinfo.value)
        assert "did you mean 'mult'" in message
        assert "registered workloads:" in message
        assert "built-in kernel" in message
        assert "bundled PIMulator GEMV trace" in message


class TestRegistration:
    def test_register_and_unregister(self, scratch_name):
        register(scratch_name, lambda: VectorAdd(bits=8))
        assert scratch_name in available_workloads()
        assert get_workload(scratch_name).signature == \
            VectorAdd(bits=8).signature
        unregister(scratch_name)
        assert scratch_name not in available_workloads()

    def test_collision_requires_replace(self, scratch_name):
        register(scratch_name, lambda: VectorAdd(bits=8))
        with pytest.raises(WorkloadRegistrationError, match="already"):
            register(scratch_name, lambda: VectorAdd(bits=16))
        entry = register(
            scratch_name, lambda: VectorAdd(bits=16), replace=True
        )
        assert entry.name == scratch_name
        assert get_workload(scratch_name).signature == \
            VectorAdd(bits=16).signature

    @pytest.mark.parametrize("bad", ["", "two words", "tab\tname", 42, None])
    def test_bad_names_rejected(self, bad):
        with pytest.raises(WorkloadRegistrationError):
            register(bad, lambda: VectorAdd(bits=8))

    @pytest.mark.parametrize("reserved", RESERVED_NAMES)
    def test_reserved_names_rejected(self, reserved):
        with pytest.raises(WorkloadRegistrationError, match="reserved"):
            register(reserved, lambda: VectorAdd(bits=8))

    def test_non_callable_factory_rejected(self):
        with pytest.raises(WorkloadRegistrationError, match="callable"):
            register("pytest-bad-factory", "not-a-factory")

    def test_unregister_unknown_raises(self):
        with pytest.raises(UnknownWorkloadError):
            unregister("never-registered")


class TestFleetIntegration:
    def test_cohort_spec_resolves_registered_names(self, scratch_name):
        from repro.fleet import CohortSpec

        register(scratch_name, lambda: VectorAdd(bits=8))
        spec = CohortSpec(scratch_name)
        assert spec.build_workload().signature == VectorAdd(bits=8).signature

    def test_cohort_spec_unknown_name_is_valueerror(self):
        from repro.fleet import CohortSpec

        with pytest.raises(ValueError, match="did you mean"):
            CohortSpec("mutl")

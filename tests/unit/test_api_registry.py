"""Unit tests for the pluggable system registry (repro.api.registry)."""

import pytest

from repro.api import available_systems, get_system, register_system, registry
from repro.baselines import ActivePassiveSystem, AHLSystem, FastConsensusSystem
from repro.common.errors import RegistrationError, SharPerError, UnknownSystemError
from repro.core.system import BaseSystem, SharPerSystem


class TestBuiltinRegistrations:
    def test_all_builtin_systems_registered(self):
        names = set(available_systems())
        assert {"sharper", "ahl", "apr", "fast"} <= names

    def test_names_resolve_to_the_right_classes(self):
        assert get_system("sharper") is SharPerSystem
        assert get_system("ahl") is AHLSystem
        assert get_system("apr") is ActivePassiveSystem
        assert get_system("fast") is FastConsensusSystem

    def test_lookup_is_case_insensitive(self):
        assert get_system("SharPer") is SharPerSystem
        assert get_system("  AHL ") is AHLSystem

    def test_registry_name_attribute(self):
        assert SharPerSystem.registry_name == "sharper"
        assert AHLSystem.registry_name == "ahl"


class TestLookupErrors:
    def test_unknown_system_raises(self):
        with pytest.raises(UnknownSystemError):
            get_system("nope")

    def test_unknown_system_is_a_key_error(self):
        # Historical callers catch KeyError on registry misses.
        with pytest.raises(KeyError):
            get_system("nope")
        with pytest.raises(SharPerError):
            get_system("nope")

    def test_error_message_lists_available_systems(self):
        with pytest.raises(UnknownSystemError, match="sharper"):
            get_system("definitely-not-registered")


@pytest.fixture
def scratch_registry(monkeypatch):
    """A copy of the registry that the test may write to; restored afterwards."""
    get_system("sharper")  # load the built-ins into the copy
    monkeypatch.setattr(registry, "_REGISTRY", dict(registry._REGISTRY))


@pytest.mark.usefixtures("scratch_registry")
class TestPluggability:
    def test_register_a_custom_system(self):
        @register_system("unit-test-system")
        class CustomSystem(BaseSystem):
            pass

        assert get_system("unit-test-system") is CustomSystem
        assert CustomSystem.registry_name == "unit-test-system"
        assert "unit-test-system" in available_systems()

    def test_duplicate_name_rejected(self):
        with pytest.raises(RegistrationError):

            @register_system("sharper")
            class Impostor(BaseSystem):
                pass

        assert get_system("sharper") is SharPerSystem

    def test_same_class_reregistration_is_idempotent(self):
        register_system("sharper")(SharPerSystem)
        assert get_system("sharper") is SharPerSystem

    def test_empty_name_rejected(self):
        with pytest.raises(RegistrationError):
            register_system("   ")

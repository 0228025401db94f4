"""Unit tests for the pluggable system registry (repro.api.registry)."""

import pytest

from repro.api import available_systems, get_system, register_system, unregister_system
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


class TestPluggability:
    def test_register_and_unregister_a_custom_system(self):
        @register_system("unit-test-system")
        class CustomSystem(BaseSystem):
            pass

        try:
            assert get_system("unit-test-system") is CustomSystem
            assert CustomSystem.registry_name == "unit-test-system"
        finally:
            unregister_system("unit-test-system")
        with pytest.raises(UnknownSystemError):
            get_system("unit-test-system")

    def test_duplicate_name_rejected(self):
        with pytest.raises(RegistrationError):

            @register_system("sharper")
            class Impostor(BaseSystem):
                pass

        assert get_system("sharper") is SharPerSystem

    def test_same_class_reregistration_is_idempotent(self):
        register_system("sharper")(SharPerSystem)
        assert get_system("sharper") is SharPerSystem

    def test_replace_allows_override(self):
        class Override(BaseSystem):
            pass

        register_system("unit-test-override")(Override)
        try:

            @register_system("unit-test-override", replace=True)
            class Replacement(BaseSystem):
                pass

            assert get_system("unit-test-override") is Replacement
        finally:
            unregister_system("unit-test-override")

    def test_empty_name_rejected(self):
        with pytest.raises(RegistrationError):
            register_system("   ")

"""Pluggable system registry: name -> :class:`~repro.core.system.BaseSystem`.

Every evaluated system registers itself with :func:`register_system`::

    from repro.api import register_system
    from repro.core.system import BaseSystem

    @register_system("mysystem")
    class MySystem(BaseSystem):
        ...

and becomes addressable by name from a :class:`~repro.api.Scenario`, the
benchmark harness, and the CLI — no central dict to edit.  The built-in
systems (SharPer plus the AHL/APR/Fast baselines) self-register when
their modules are imported; :func:`get_system` imports them lazily so a
bare ``get_system("sharper")`` works without any prior import.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Type, TypeVar

from ..common.errors import RegistrationError, UnknownSystemError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from ..core.system import BaseSystem

__all__ = [
    "available_systems",
    "get_system",
    "register_system",
]

SystemT = TypeVar("SystemT", bound="type")

#: name -> system class.
_REGISTRY: dict[str, Type["BaseSystem"]] = {}
_builtins_loaded = False


def _normalize(name: str) -> str:
    key = name.strip().lower()
    if not key:
        raise RegistrationError("system names must be non-empty")
    return key


def _ensure_builtins() -> None:
    """Import the modules whose import side effect registers the built-ins."""
    global _builtins_loaded
    if _builtins_loaded:
        return
    from .. import baselines  # noqa: F401  (registers ahl/apr/fast)
    from ..core import system  # noqa: F401  (registers sharper)

    _builtins_loaded = True


def register_system(name: str) -> Callable[[SystemT], SystemT]:
    """Class decorator registering a system under ``name``.

    Re-registering the *same* class under the same name is a no-op;
    binding a taken name to a different class raises
    :class:`~repro.common.errors.RegistrationError`.
    """
    key = _normalize(name)

    def decorator(cls: SystemT) -> SystemT:
        existing = _REGISTRY.get(key)
        if existing is not None and existing is not cls:
            raise RegistrationError(
                f"system name {key!r} is already registered to "
                f"{existing.__module__}.{existing.__qualname__}"
            )
        _REGISTRY[key] = cls
        cls.registry_name = key
        return cls

    return decorator


def get_system(name: str) -> Type["BaseSystem"]:
    """Look up a registered system class by (case-insensitive) name."""
    _ensure_builtins()
    try:
        return _REGISTRY[_normalize(name)]
    except KeyError:
        raise UnknownSystemError(
            f"unknown system {name!r}; choose from {sorted(_REGISTRY)}"
        ) from None


def available_systems() -> dict[str, Type["BaseSystem"]]:
    """A snapshot of the registry: sorted name -> system class."""
    _ensure_builtins()
    return {name: _REGISTRY[name] for name in sorted(_REGISTRY)}

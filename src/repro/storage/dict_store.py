"""A name ``perf/layers.py`` still imports; the dict backend it named is gone."""

from __future__ import annotations

from .base import StateStore

__all__ = ["AccountStore"]


class AccountStore(StateStore):  # perf-pinned name: ROADMAP item 4(b) deletes it
    pass

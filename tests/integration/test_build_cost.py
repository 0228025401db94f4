"""What building a system costs: a Python-call count flat in accounts, one prototype per shard.

A shard's store is one balance column bootstrapped by ``array``
multiplication (``StateStore.bootstrap``), and every replica of the
shard receives a clone of that one prototype.  So the Python work of
``Scenario.build_system()`` is counted here, not timed: the number of
Python-level calls (``call`` plus ``c_call`` profile events) must not
depend on the shard size.  The prototypes themselves are held weakly
by the system and live only as long as a clone's link needs them.
"""

import gc
import sys
import weakref

import pytest

from repro.api import DeploymentSpec, Scenario
from repro.txn.workload import WorkloadConfig

SYSTEMS = ["sharper", "ahl", "apr", "fast"]


def _scenario(accounts_per_shard: int, system: str = "sharper") -> Scenario:
    return Scenario(
        deployment=DeploymentSpec(system=system, num_clusters=4),
        workload=WorkloadConfig(accounts_per_shard=accounts_per_shard, num_clients=64),
        clients=8,
    )


def _calls_during_build(scenario: Scenario) -> int:
    """Python-level calls (``call`` + ``c_call`` events) of one ``build_system()``."""
    calls = [0]

    def profile(frame, event, arg):
        if event in ("call", "c_call"):
            calls[0] += 1

    collecting = gc.isenabled()
    gc.disable()  # a collection inside the build would add calls of its own
    sys.setprofile(profile)
    try:
        system = scenario.build_system()
    finally:
        sys.setprofile(None)
        if collecting:
            gc.enable()
    del system
    return calls[0]


@pytest.mark.parametrize("system", SYSTEMS)
def test_build_makes_as_many_calls_at_256_as_at_65536_accounts(system):
    _calls_during_build(_scenario(256, system))  # warm imports and memos
    small = _calls_during_build(_scenario(256, system))
    large = _calls_during_build(_scenario(65_536, system))
    assert small == large


def _stores(system):
    return [process.store for process in system.processes() if hasattr(process, "store")]


@pytest.mark.parametrize("system", SYSTEMS)
def test_one_prototype_per_shard_lives_until_every_clone_has_digested(system):
    built = _scenario(64, system).build_system()
    stores = _stores(built)
    prototypes = {id(store._cloned_from[0]): store._cloned_from[0] for store in stores}
    # Repeated _bootstrap_store calls (every replica, every passive) share it.
    assert sorted(prototype.shard for prototype in prototypes.values()) == sorted(
        {store.shard for store in stores}
    )
    alive = [weakref.ref(prototype) for prototype in prototypes.values()]
    del prototypes
    assert all(ref() is not None for ref in alive)  # held by the clones' links
    digests = {store.shard: store.naive_state_digest() for store in stores}
    for store in stores:
        assert store.state_digest() == digests[store.shard]
    assert [ref() for ref in alive] == [None] * len(alive)
    assert len(built._store_cache) == 0

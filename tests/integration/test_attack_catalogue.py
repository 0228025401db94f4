"""The attack catalogue, pinned: every shipped attack's exact trajectory.

Each attack draws from a private seeded RNG, and the order of those
draws is part of its behaviour: a refactor that shuffles the peers at
another moment, or draws one extra number, still runs safely but lands
on a different trajectory.  These pins, recorded at ee95f8c (before the
catalogue became one table-driven interceptor), catch that drift in
tier-1 instead of by diffing the example sweep's output by hand.

Per attack: committed transactions, chain heights, and each Byzantine
interceptor's ``seen / passed / dropped / injected`` counters.  The
``--list-attacks`` listing is pinned byte for byte alongside.
"""

import dataclasses

import pytest

from repro.api import FaultSchedule
from repro.bench.cli import main as bench_main
from repro.bench.experiments import attack_point, default_attack_names


def fingerprint(result):
    system = result.system
    interceptors = {
        int(process.pid): (
            process.interceptor.seen,
            process.interceptor.passed,
            process.interceptor.dropped,
            process.interceptor.injected,
        )
        for process in list(system.processes()) + list(system.clients)
        if process.interceptor is not None
    }
    heights = {int(cluster): height for cluster, height in sorted(result.chain_heights.items())}
    return result.stats.committed, heights, interceptors


#: ``attack_point(name, 0.2, seed=1, duration=0.3)`` for every default
#: attack name, recorded at ee95f8c.
ATTACK_PINNED = {
    "checkpoint-suppressor": (585, {0: 419, 1: 495}, {0: (4328, 4328, 0, 0)}),
    "delay-attacker": (0, {0: 86, 1: 100}, {0: (251, 0, 0, 251)}),
    "equivocating-primary": (3, {0: 95, 1: 107}, {0: (301, 287, 0, 14)}),
    "forged-view": (4, {0: 91, 1: 105}, {0: (262, 226, 0, 43)}),
    "mute-during-view-change": (585, {0: 419, 1: 495}, {0: (4328, 4328, 0, 0)}),
    "quorum-aware-equivocator": (585, {0: 419, 1: 495}, {0: (4328, 4328, 0, 0)}),
    "selective-silence": (0, {0: 74, 1: 97}, {0: (278, 192, 86, 0)}),
    "silent-primary": (0, {0: 74, 1: 96}, {0: (358, 0, 358, 0)}),
    "tampered-digest": (588, {0: 420, 1: 498}, {0: (4350, 1898, 0, 2452)}),
    "vote-withholder": (601, {0: 431, 1: 508}, {0: (4502, 1962, 2540, 0)}),
    "duplicating-client": (587, {0: 418, 1: 497}, {1000000: (50, 0, 0, 130)}),
    "forged-signature-client": (587, {0: 419, 1: 497}, {1000000: (51, 0, 0, 102)}),
    "ownership-violator-client": (589, {0: 421, 1: 500}, {1000000: (51, 0, 0, 102)}),
    "coalition": (0, {0: 87, 1: 101}, {0: (294, 84, 0, 210), 5: (140, 70, 70, 0)}),
}

#: The same point with the attack on backup node 1 instead of the
#: primary, recorded at ee95f8c.  On a primary the quorum-aware
#: equivocator never finds a pivotal vote; on a backup its seeded split
#: fires, so this pin covers that draw order.
BACKUP_ATTACK_PINNED = {
    "quorum-aware-equivocator": (583, {0: 418, 1: 494}, {1: (3435, 2997, 0, 438)}),
}

#: ``sharper-bench --list-attacks`` at ee95f8c.
LIST_ATTACKS_PINNED = """\
registered adversary behaviors (replica-target):
  checkpoint-suppressor      Drop outbound checkpoint messages to stall garbage collection.
  delay-attacker             Hold every outbound message just under the view-change timeout.
  equivocating-primary       Send conflicting pre-prepares to two disjoint halves of the backups.
  forged-view                Inflate view numbers to self-elect — the forged-view attack.
  mute-during-view-change    Go silent exactly while a view change is in flight.
  quorum-aware-equivocator   Equivocate a quorum vote only when the quorum is one vote short.
  selective-silence          Mute traffic toward a chosen subset of peers only.
  silent-primary             Drop every outbound message: a live node the network never hears.
  tampered-digest            Corrupt the digest carried by this node's quorum votes.
  vote-withholder            Suppress quorum votes while behaving correctly otherwise.
registered adversary behaviors (client-target):
  duplicating-client         Duplicate and replay requests to attack at-most-once execution.
  forged-signature-client    Pair every request with a forged-signature impersonation attempt.
  ownership-violator-client  Submit transfers from accounts the client does not own.
composite attacks:
  coalition                  colluding pair: initiator-primary delay-attacker + remote vote-withholder on shared cross-shard targets
"""


def test_the_pins_cover_every_default_attack():
    assert list(ATTACK_PINNED) == default_attack_names()


@pytest.mark.parametrize("name", list(ATTACK_PINNED))
def test_attack_reproduces_its_recorded_trajectory(name):
    result = attack_point(name, 0.2, seed=1, duration=0.3).run()
    assert result.ok
    assert fingerprint(result) == ATTACK_PINNED[name]


@pytest.mark.parametrize("name", list(BACKUP_ATTACK_PINNED))
def test_attack_on_a_backup_reproduces_its_recorded_trajectory(name):
    scenario = dataclasses.replace(
        attack_point(name, 0.2, seed=1, duration=0.3),
        faults=FaultSchedule().make_byzantine(at=0.05, node=1, behavior=name),
    )
    result = scenario.run()
    assert result.ok
    assert fingerprint(result) == BACKUP_ATTACK_PINNED[name]


def test_list_attacks_output_is_byte_identical(capsys):
    assert bench_main(["--list-attacks"]) == 0
    assert capsys.readouterr().out == LIST_ATTACKS_PINNED

"""First-class fault schedules: timed fault events executed by the simulator.

The paper's availability experiments crash primaries and backups at
chosen points of a run.  Instead of interleaving ``sim.run`` calls with
ad-hoc crash calls, a :class:`FaultSchedule` declares *what happens
when* up front::

    faults = (
        FaultSchedule()
        .crash_primary(at=0.05, cluster=0)
        .make_byzantine(at=0.08, node=4, behavior="equivocating-primary")
        .make_client_byzantine(at=0.09, client=0, behavior="duplicating-client")
        .form_coalition(at=0.10, members={0: "delay-attacker", 5: "vote-withholder"})
        .partition(at=0.12, groups=[[0], [1, 2, 3]])
        .heal(at=0.15)
        .restore(at=0.20, node=4)
    )

A schedule is a value: frozen, hashable, equal to any schedule with the
same events, and each builder method returns a new one.
:meth:`FaultSchedule.arm` binds every event to a system — a node,
cluster primary, or client the system lacks fails at time zero — and
schedules the bound actions, so one ``sim.run`` drives the scenario.
Each event injects itself: it crashes or recovers a process, partitions
the network, or attaches / detaches an adversary interceptor
(:mod:`repro.adversary`), the one record of which processes are
Byzantine.  A behaviour aimed at the wrong kind of process, or an
unknown behaviour name, is refused when the event is built.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

from ..adversary import AdversaryBehavior, Coalition, get_behavior, make_behavior
from ..common.errors import ConfigurationError
from ..common.types import ClusterId

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from ..core.system import BaseSystem
    from ..sim.process import Process

__all__ = [
    "CrashNode",
    "CrashPrimary",
    "FaultEvent",
    "FaultSchedule",
    "FormCoalition",
    "Heal",
    "MakeByzantine",
    "MakeClientByzantine",
    "MakePrimaryByzantine",
    "PartitionClusters",
    "RecoverNode",
    "RestoreNode",
]


def _process(system: "BaseSystem", pid: int, clients: bool = False) -> "Process":
    """The replica (or, with ``clients``, replica or client) process ``pid``."""
    for process in system.processes() + (system.clients if clients else []):
        if int(process.pid) == pid:
            return process
    kind = "replica or client" if clients else "replica"
    raise ConfigurationError(f"no {kind} process with id {pid}")


def _primary(system: "BaseSystem", cluster: int) -> "Process":
    """The initial (view-0) primary of ``cluster``."""
    return _process(system, int(system.config.cluster(ClusterId(cluster)).primary))


def _check_target(behavior: "str | AdversaryBehavior", target: str) -> None:
    """Refuse an unknown behaviour, or one that attacks another kind of process."""
    actual = get_behavior(_label(behavior)).target
    if actual != target:
        raise ConfigurationError(
            f"behavior {_label(behavior)!r} has target {actual!r}, not {target!r}"
        )


def _label(behavior: "str | AdversaryBehavior") -> str:
    return behavior if isinstance(behavior, str) else behavior.name


def _attach(
    system: "BaseSystem", process: "Process", behavior: "str | AdversaryBehavior", seed: int
) -> None:
    # A private copy: a schedule (and any behaviour instance in it) is shared
    # by scenario variations and pool pickles, so one run's adversary state
    # (RNG draws, forks, counters) must not leak into the next.
    process.set_interceptor(copy.deepcopy(make_behavior(behavior, seed=seed)))
    system.arm_request_guards()


@dataclass(frozen=True)
class FaultEvent:
    """A single timed fault, injected at simulated time ``time``."""

    time: float

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ConfigurationError(f"fault events need a non-negative time, got {self.time}")

    def bind(self, system: "BaseSystem") -> Callable[[], None]:
        """Resolve this event's target in ``system``; return the action injecting the fault.

        :meth:`FaultSchedule.arm` binds every event before the run starts
        and runs each action at its event's ``time``.  A target ``system``
        lacks raises :class:`ConfigurationError`.
        """
        raise NotImplementedError

    def describe(self) -> str:
        return f"{type(self).__name__} @ t={self.time:.3f}s"


@dataclass(frozen=True)
class CrashNode(FaultEvent):
    """Crash one replica process."""

    node_id: int = 0

    def bind(self, system: "BaseSystem") -> Callable[[], None]:
        return _process(system, self.node_id).crash

    def describe(self) -> str:
        return f"crash node {self.node_id} @ t={self.time:.3f}s"


@dataclass(frozen=True)
class CrashPrimary(FaultEvent):
    """Crash the initial (view-0) primary of one cluster.

    After a view change the new primary is an ordinary node; crash it
    with :class:`CrashNode` and the cluster's ``primary_for_view``.
    """

    cluster: int = 0

    def bind(self, system: "BaseSystem") -> Callable[[], None]:
        return _primary(system, self.cluster).crash

    def describe(self) -> str:
        return f"crash primary of cluster p{self.cluster} @ t={self.time:.3f}s"


@dataclass(frozen=True)
class RecoverNode(FaultEvent):
    """Restart a previously crashed replica (state retained, Section 2.1).

    SharPer replicas then fetch, by state transfer (:mod:`repro.recovery`),
    the slots their cluster decided while they were down.
    """

    node_id: int = 0

    def bind(self, system: "BaseSystem") -> Callable[[], None]:
        return _process(system, self.node_id).recover

    def describe(self) -> str:
        return f"recover node {self.node_id} @ t={self.time:.3f}s"


@dataclass(frozen=True)
class PartitionClusters(FaultEvent):
    """Partition the network along cluster boundaries.

    ``groups`` lists cluster ids; messages only flow between nodes whose
    clusters share a group.  Processes not named by any group (clients,
    clusters left out) keep full connectivity, matching
    :meth:`repro.sim.network.Network.partition`.
    """

    groups: tuple[tuple[int, ...], ...] = ()

    def bind(self, system: "BaseSystem") -> Callable[[], None]:
        pid_groups = [
            [
                int(node)
                for cluster in group
                for node in system.config.cluster(ClusterId(cluster)).node_ids
            ]
            for group in self.groups
        ]
        return partial(system.network.partition, pid_groups)

    def describe(self) -> str:
        rendered = " | ".join(
            ",".join(f"p{cluster}" for cluster in group) for group in self.groups
        )
        return f"partition [{rendered}] @ t={self.time:.3f}s"


@dataclass(frozen=True)
class Heal(FaultEvent):
    """Remove the network partition."""

    def bind(self, system: "BaseSystem") -> Callable[[], None]:
        return system.network.heal

    def describe(self) -> str:
        return f"heal network @ t={self.time:.3f}s"


@dataclass(frozen=True)
class MakeByzantine(FaultEvent):
    """Attach a replica adversary behaviour to one replica (it keeps running).

    ``behavior`` is a :mod:`repro.adversary` registry name or a ready
    :class:`~repro.adversary.AdversaryBehavior` instance.
    """

    #: marker consulted by :meth:`repro.api.Scenario.run` to decide
    #: whether the cross-replica safety audit is warranted.
    adversarial = True

    node_id: int = 0
    behavior: "str | AdversaryBehavior" = "silent-primary"

    def __post_init__(self) -> None:
        super().__post_init__()
        _check_target(self.behavior, "replica")

    def bind(self, system: "BaseSystem") -> Callable[[], None]:
        process = _process(system, self.node_id)
        return partial(_attach, system, process, self.behavior, system.seed + self.node_id)

    def describe(self) -> str:
        return f"make node {self.node_id} byzantine ({_label(self.behavior)}) @ t={self.time:.3f}s"


@dataclass(frozen=True)
class MakePrimaryByzantine(FaultEvent):
    """Attach a replica adversary behaviour to the initial primary of a cluster."""

    adversarial = True

    cluster: int = 0
    behavior: "str | AdversaryBehavior" = "silent-primary"

    def __post_init__(self) -> None:
        super().__post_init__()
        _check_target(self.behavior, "replica")

    def bind(self, system: "BaseSystem") -> Callable[[], None]:
        primary = _primary(system, self.cluster)
        return partial(_attach, system, primary, self.behavior, system.seed + int(primary.pid))

    def describe(self) -> str:
        return (
            f"make primary of cluster p{self.cluster} byzantine "
            f"({_label(self.behavior)}) @ t={self.time:.3f}s"
        )


@dataclass(frozen=True)
class MakeClientByzantine(FaultEvent):
    """Attach a *client* adversary behaviour to one spawned client.

    ``client`` indexes the system's clients in spawn order.  Every
    replica's request guard is armed in the same simulator event, so the
    client's forged, duplicated, or stolen traffic is screened from its
    very first message.
    """

    adversarial = True

    client: int = 0
    behavior: "str | AdversaryBehavior" = "duplicating-client"

    def __post_init__(self) -> None:
        super().__post_init__()
        _check_target(self.behavior, "client")

    def bind(self, system: "BaseSystem") -> Callable[[], None]:
        if not 0 <= self.client < len(system.clients):
            raise ConfigurationError(
                f"no spawned client with index {self.client} "
                f"({len(system.clients)} clients exist)"
            )
        seed = system.seed + 733 * (self.client + 1)
        return partial(_attach, system, system.clients[self.client], self.behavior, seed)

    def describe(self) -> str:
        return f"make client {self.client} byzantine ({_label(self.behavior)}) @ t={self.time:.3f}s"


@dataclass(frozen=True)
class FormCoalition(FaultEvent):
    """Bind Byzantine replicas in different clusters to one shared script.

    ``members`` maps node ids to the replica behaviour each coalition
    member gates on the shared target set (see
    :class:`repro.adversary.Coalition`).  The coalition object itself is
    built when the event fires, so schedules stay picklable and each run
    gets a private instance.
    """

    adversarial = True

    members: tuple[tuple[int, str], ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        super().__post_init__()
        for _, behavior in self.members:
            _check_target(behavior, "replica")

    def bind(self, system: "BaseSystem") -> Callable[[], None]:
        members = [(_process(system, node), behavior) for node, behavior in sorted(self.members)]

        def form() -> None:
            coalition = Coalition(seed=system.seed + 104729 * (self.seed + 1))
            for process, behavior in members:
                process.set_interceptor(coalition.member(behavior))
            system.arm_request_guards()

        return form

    def describe(self) -> str:
        rendered = ", ".join(f"{node}:{behavior}" for node, behavior in self.members)
        return f"form coalition [{rendered}] @ t={self.time:.3f}s"


@dataclass(frozen=True)
class RestoreNode(FaultEvent):
    """Restore a Byzantine replica or client to correct behaviour (detach adversary)."""

    node_id: int = 0

    def bind(self, system: "BaseSystem") -> Callable[[], None]:
        return partial(_process(system, self.node_id, clients=True).set_interceptor, None)

    def describe(self) -> str:
        return f"restore node {self.node_id} @ t={self.time:.3f}s"


@dataclass(frozen=True, repr=False)
class FaultSchedule:
    """An immutable, time-ordered tuple of :class:`FaultEvent` with a fluent builder.

    Every builder method returns a new schedule, so calls chain and a
    schedule shared by two scenarios never changes under either.
    :meth:`arm` registers the events with a system's simulator — after
    that, a plain ``sim.run`` executes them in time order alongside the
    protocol traffic.
    """

    events: tuple[FaultEvent, ...] = ()

    def __post_init__(self) -> None:
        # A stable sort: events at the same time keep the order they were added in.
        object.__setattr__(self, "events", tuple(sorted(self.events, key=lambda e: e.time)))

    # ------------------------------------------------------------------
    # builder surface
    # ------------------------------------------------------------------
    def add(self, event: FaultEvent) -> "FaultSchedule":
        """This schedule plus ``event``."""
        return FaultSchedule((*self.events, event))

    def crash_node(self, at: float, node_id: int) -> "FaultSchedule":
        """Crash replica ``node_id`` at simulated time ``at``."""
        return self.add(CrashNode(time=at, node_id=node_id))

    def crash_primary(self, at: float, cluster: int) -> "FaultSchedule":
        """Crash the primary of ``cluster`` at simulated time ``at``."""
        return self.add(CrashPrimary(time=at, cluster=cluster))

    def recover_node(self, at: float, node_id: int) -> "FaultSchedule":
        """Recover replica ``node_id`` at simulated time ``at``."""
        return self.add(RecoverNode(time=at, node_id=node_id))

    def partition(self, at: float, groups: Sequence[Sequence[int]]) -> "FaultSchedule":
        """Partition the network along cluster boundaries at time ``at``."""
        frozen = tuple(tuple(int(cluster) for cluster in group) for group in groups)
        return self.add(PartitionClusters(time=at, groups=frozen))

    def heal(self, at: float) -> "FaultSchedule":
        """Heal the network partition at time ``at``."""
        return self.add(Heal(time=at))

    def make_byzantine(
        self, at: float, node: int, behavior: "str | AdversaryBehavior" = "silent-primary"
    ) -> "FaultSchedule":
        """Attach a replica adversary behaviour to replica ``node`` at time ``at``."""
        return self.add(MakeByzantine(time=at, node_id=node, behavior=behavior))

    def make_primary_byzantine(
        self, at: float, cluster: int, behavior: "str | AdversaryBehavior" = "silent-primary"
    ) -> "FaultSchedule":
        """Attach a replica adversary behaviour to ``cluster``'s initial primary."""
        return self.add(MakePrimaryByzantine(time=at, cluster=cluster, behavior=behavior))

    def make_client_byzantine(
        self, at: float, client: int, behavior: "str | AdversaryBehavior" = "duplicating-client"
    ) -> "FaultSchedule":
        """Attach a client adversary behaviour to spawned client ``client``."""
        return self.add(MakeClientByzantine(time=at, client=client, behavior=behavior))

    def form_coalition(
        self, at: float, members: "dict[int, str] | Sequence[tuple[int, str]]", seed: int = 0
    ) -> "FaultSchedule":
        """Bind the given replicas to one colluding script at time ``at``."""
        pairs = members.items() if isinstance(members, dict) else members
        frozen = tuple(sorted((int(node), str(behavior)) for node, behavior in pairs))
        return self.add(FormCoalition(time=at, members=frozen, seed=seed))

    def restore(self, at: float, node: int) -> "FaultSchedule":
        """Restore Byzantine replica or client ``node`` to correct behaviour at ``at``."""
        return self.add(RestoreNode(time=at, node_id=node))

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def arm(self, system: "BaseSystem") -> None:
        """Resolve every event against ``system``, then schedule its action.

        A node, cluster, or client the system lacks raises
        :class:`ConfigurationError` here, at time zero; each action still
        runs at its event's time.  Arming an equal schedule twice on one
        system is a no-op (double-arming would apply every fault twice):
        ``system.armed_faults`` records what is armed, by value.
        """
        if self in system.armed_faults:
            return
        actions = [(event.time, event.bind(system)) for event in self.events]
        system.armed_faults.add(self)
        for time, action in actions:
            system.sim.schedule_at(time, action)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[FaultEvent]:
        return iter(self.events)

    def __repr__(self) -> str:
        inner = "; ".join(event.describe() for event in self.events) or "empty"
        return f"FaultSchedule({inner})"

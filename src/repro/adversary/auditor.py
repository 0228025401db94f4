"""Post-run safety auditing under Byzantine behaviour.

The ledger audit (:func:`repro.ledger.validation.audit_views`) checks one
*representative* view per cluster; that is the right tool for fault-free
and crash runs, but an adversary could in principle split a cluster into
replicas that each hold an internally consistent — yet mutually
conflicting — chain.  The :class:`SafetyAuditor` therefore checks the
paper's safety claims across **every correct replica** after a run:

* **No fork** — no two correct replicas of a cluster commit different
  blocks at the same height (chains of correct replicas are prefixes of
  one another; lagging behind is allowed, diverging is not).
* **Balance conservation** — summing one correct representative store
  per shard reproduces exactly the balance minted at bootstrap.
* **At-most-once execution** — no transaction id appears twice in any
  correct replica's chain, and replicas agreeing on a height agree on
  the transaction committed there.

Byzantine replicas — those with an adversary interceptor attached
(:attr:`repro.sim.process.Process.byzantine`) — are excluded:
the paper makes no promises about *their* state, only that they cannot
drag correct replicas into inconsistency while at most ``f`` per cluster
misbehave.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..common.errors import ValidationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from ..core.system import BaseSystem

__all__ = ["SafetyReport", "SafetyAuditor"]


@dataclass
class SafetyReport:
    """Outcome of a :class:`SafetyAuditor` pass (picklable, detachable)."""

    #: correct replicas whose chains were cross-checked.
    replicas_checked: int = 0
    #: clusters with at least one correct replica.
    clusters_checked: int = 0
    #: process ids excluded as Byzantine.
    byzantine_nodes: tuple[int, ...] = ()
    #: observed / expected total balance (None when stores were unavailable).
    total_balance: int | None = None
    expected_balance: int | None = None
    #: human-readable safety violations (empty means the run was safe).
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when no safety violation was found."""
        return not self.problems

    def raise_if_failed(self) -> None:
        """Raise :class:`ValidationError` summarising any violation."""
        if self.problems:
            raise ValidationError("safety audit failed: " + "; ".join(self.problems))

    def summary(self) -> str:
        """One line suitable for example/CLI output."""
        verdict = "SAFE" if self.ok else f"VIOLATED ({len(self.problems)})"
        return (
            f"safety: {verdict} — {self.replicas_checked} correct replicas over "
            f"{self.clusters_checked} clusters, "
            f"{len(self.byzantine_nodes)} Byzantine excluded"
        )


class SafetyAuditor:
    """Cross-replica safety checker for a finished (drained) system run."""

    def __init__(self, system: "BaseSystem") -> None:
        self.system = system

    # ------------------------------------------------------------------
    # entry point
    # ------------------------------------------------------------------
    def audit(self) -> SafetyReport:
        """Run all safety checks and return the bundled report."""
        system = self.system
        byzantine = tuple(
            sorted(int(process.pid) for process in system.processes() if process.byzantine)
        )
        report = SafetyReport(byzantine_nodes=byzantine)

        groups = self._correct_replicas_by_cluster()
        representatives = {}
        for cluster_id in sorted(groups):
            replicas = groups[cluster_id]
            report.clusters_checked += 1
            report.replicas_checked += len(replicas)
            representative = self._check_no_fork(cluster_id, replicas, report)
            self._check_at_most_once(cluster_id, replicas, report)
            representatives[cluster_id] = representative
        self._check_balance(representatives, report)
        return report

    # ------------------------------------------------------------------
    # replica discovery
    # ------------------------------------------------------------------
    def _correct_replicas_by_cluster(self) -> dict:
        """Group the system's correct, chain-bearing replicas by cluster.

        Works on any :class:`~repro.core.system.BaseSystem` whose replica
        processes expose ``chain`` and ``cluster_id`` (SharPer and all
        shipped baselines do); other processes are ignored.
        """
        groups: dict = {}
        for process in self.system.processes():
            if process.byzantine:
                continue
            chain = getattr(process, "chain", None)
            cluster_id = getattr(process, "cluster_id", None)
            if chain is None or cluster_id is None:
                continue
            groups.setdefault(cluster_id, []).append(process)
        return groups

    # ------------------------------------------------------------------
    # checks
    # ------------------------------------------------------------------
    def _check_no_fork(self, cluster_id, replicas, report: SafetyReport):
        """Chains of correct replicas must be prefixes of the longest one.

        Blocks are aligned by their absolute chain position, not by list
        offset, because replicas prune independently once checkpointing
        runs (:mod:`repro.recovery`): two correct replicas may retain
        different suffixes of the same chain.  Positions only one of the
        two retains are vouched for by the stable-checkpoint quorum that
        authorised the pruning.  Returns the representative
        (longest-chain) replica for the cluster, used afterwards for the
        balance check.
        """
        representative = max(replicas, key=lambda replica: replica.chain.height)
        reference = {
            block.position_for(cluster_id): block
            for block in representative.chain.blocks()
        }
        for replica in replicas:
            if replica is representative:
                continue
            for block in replica.chain.blocks():
                position = block.position_for(cluster_id)
                other = reference.get(position)
                if other is None:
                    continue
                if block.block_hash != other.block_hash:
                    report.problems.append(
                        f"fork in cluster {cluster_id}: replicas "
                        f"{int(replica.pid)} and {int(representative.pid)} commit "
                        f"different blocks at height {position} "
                        f"({block.label()} vs {other.label()})"
                    )
                    break
        return representative

    def _check_at_most_once(self, cluster_id, replicas, report: SafetyReport) -> None:
        """No transaction may be committed twice in any correct chain.

        Heights come from the blocks' position vectors (stable across
        pruning); the append path additionally enforces the invariant at
        run time against the full — never pruned — transaction index.
        """
        for replica in replicas:
            seen: dict[str, int] = {}
            for block in replica.chain.blocks():
                height = block.position_for(cluster_id)
                for transaction in block.transactions:
                    first = seen.setdefault(transaction.tx_id, height)
                    if first != height:
                        report.problems.append(
                            f"double execution in cluster {cluster_id}: replica "
                            f"{int(replica.pid)} committed {transaction.tx_id} at "
                            f"heights {first} and {height}"
                        )

    def _check_balance(self, representatives: dict, report: SafetyReport) -> None:
        """Summing one correct store per shard must reproduce the mint."""
        system = self.system
        stores = [
            replica.store
            for replica in representatives.values()
            if getattr(replica, "store", None) is not None
        ]
        if len(stores) == len(system.config.clusters) and stores:
            total = sum(store.total_balance() for store in stores)
        else:
            # Systems whose shard/store layout does not map one store per
            # cluster (e.g. single-group baselines) fall back to their own
            # representative-store accounting.
            total = system.total_balance()
        expected = system.expected_total_balance()
        report.total_balance = total
        report.expected_balance = expected
        if total != expected:
            report.problems.append(
                f"balance not conserved across correct replicas: have {total}, "
                f"expected {expected}"
            )

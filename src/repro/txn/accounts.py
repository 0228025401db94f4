"""Account sharding for the blockchain accounting application.

The paper's evaluation implements "a simple blockchain-based accounting
application where the data records are client accounts" (Section 4) and
adopts the account-based transaction model (Section 2.4): the system
tracks the balance of every account and a transfer is valid only if the
source account is owned by the requesting client and holds enough funds.

:class:`ShardMapper` maps accounts to data shards.  A workload-aware
mapper would minimise cross-shard transactions, but the evaluation
controls the cross-shard fraction directly, so contiguous id ranges
suffice.

The per-shard state itself is :class:`repro.storage.StateStore`.
"""

from __future__ import annotations

from typing import Iterable

from ..common.errors import ConfigurationError, UnknownAccountError
from ..common.types import AccountId, ShardId

__all__ = ["ShardMapper"]


class ShardMapper:
    """Maps account ids to data shards ``d_1 .. d_|P|``.

    Each shard holds a contiguous id range — account ``i`` lives in
    shard ``i // accounts_per_shard`` — which mirrors how a
    workload-aware partitioner would co-locate related accounts and lets
    the state store map ids to flat array slots without a hash table;
    the ``range`` objects are built once.

    A run has **one** mapper (the system's ``workload_mapper``, shared by
    generators, router and replicas), so a transaction's classification
    memo knows its mapper by identity; mappers have no value equality.
    """

    def __init__(self, num_shards: int, accounts_per_shard: int) -> None:
        if num_shards <= 0:
            raise ConfigurationError("num_shards must be positive")
        if accounts_per_shard <= 0:
            raise ConfigurationError("accounts_per_shard must be positive")
        self.num_shards = num_shards
        self.accounts_per_shard = accounts_per_shard
        #: total number of accounts across all shards.
        self.total_accounts = total = num_shards * accounts_per_shard
        self._shard_accounts = tuple(
            range(shard * accounts_per_shard, (shard + 1) * accounts_per_shard)
            for shard in range(num_shards)
        )

    def shard_of(self, account_id: AccountId) -> ShardId:
        """Shard that stores ``account_id``."""
        if not 0 <= account_id < self.total_accounts:
            raise UnknownAccountError(f"account {account_id} is outside the keyspace")
        return ShardId(account_id // self.accounts_per_shard)

    def accounts_in_shard(self, shard: ShardId) -> range:
        """The account ids stored in ``shard`` (a contiguous range)."""
        if not 0 <= shard < self.num_shards:
            raise ConfigurationError(f"unknown shard {shard}")
        return self._shard_accounts[shard]

    def shards_of(self, account_ids: Iterable[AccountId]) -> frozenset[ShardId]:
        """Set of shards touched by a group of accounts."""
        return frozenset(self.shard_of(account_id) for account_id in account_ids)

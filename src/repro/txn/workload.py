"""Synthetic workload generation for the accounting application.

The paper's experiments control two knobs (Section 4):

* the percentage of cross-shard transactions (0%, 10%, 20%, 80%, 100%);
* the number of shards each cross-shard transaction touches (two,
  randomly chosen, in Figures 6 and 7; cross-shard transactions also
  touch two clusters in the scalability experiment of Figure 8).

:class:`WorkloadGenerator` reproduces that: it draws intra-shard
transactions uniformly over the shards and, with the configured
probability, emits a cross-shard transfer between accounts of distinct,
randomly chosen shards.  Accounts within a shard are drawn uniformly.
Generation is seeded and fully deterministic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterator

from ..common.errors import ConfigurationError
from ..common.types import AccountId, ClientId, ShardId
from ..storage.base import owner_of
from .accounts import ShardMapper
from .transaction import Transaction, Transfer

__all__ = ["WorkloadConfig", "WorkloadGenerator"]


@dataclass(frozen=True)
class WorkloadConfig:
    """Parameters of a synthetic workload."""

    #: fraction of transactions that are cross-shard (0.0 – 1.0).
    cross_shard_fraction: float = 0.0
    #: number of distinct shards each cross-shard transaction touches.
    shards_per_cross_tx: int = 2
    #: number of accounts stored in each shard.
    accounts_per_shard: int = 1024
    #: initial balance of every account.
    initial_balance: int = 1_000_000
    #: transferred amount range (inclusive).
    min_amount: int = 1
    max_amount: int = 10
    #: number of distinct application clients issuing requests.
    num_clients: int = 64

    def __post_init__(self) -> None:
        if not 0.0 <= self.cross_shard_fraction <= 1.0:
            raise ConfigurationError("cross_shard_fraction must be within [0, 1]")
        if self.shards_per_cross_tx < 2:
            raise ConfigurationError("a cross-shard transaction touches at least 2 shards")
        if self.accounts_per_shard < 2:
            raise ConfigurationError("need at least 2 accounts per shard")
        if self.min_amount <= 0 or self.max_amount < self.min_amount:
            raise ConfigurationError("invalid transfer amount range")
        if self.num_clients <= 0:
            raise ConfigurationError("num_clients must be positive")


class WorkloadGenerator:
    """Deterministic stream of transactions matching a :class:`WorkloadConfig`.

    ``mapper`` is the run's one shard mapper (a system passes its own);
    a bare generator builds the one its config describes.
    """

    def __init__(
        self,
        config: WorkloadConfig,
        num_shards: int,
        seed: int = 0,
        mapper: ShardMapper | None = None,
    ) -> None:
        if num_shards <= 0:
            raise ConfigurationError("num_shards must be positive")
        if config.cross_shard_fraction > 0 and num_shards < config.shards_per_cross_tx:
            raise ConfigurationError(
                f"cannot generate {config.shards_per_cross_tx}-shard transactions "
                f"with only {num_shards} shards"
            )
        if mapper is None:
            mapper = ShardMapper(num_shards, config.accounts_per_shard)
        elif (mapper.num_shards, mapper.accounts_per_shard) != (
            num_shards, config.accounts_per_shard
        ):
            raise ConfigurationError("mapper does not match the workload's shard layout")
        self.config = config
        self.num_shards = num_shards
        self.mapper = mapper
        self.rng = random.Random(seed)
        self.seed = seed
        self.generated = 0

    def _next_tx_id(self, client: ClientId) -> str:
        """Deterministic per-generator transaction id.

        Unlike the process-global :func:`repro.txn.new_tx_id` counter,
        ids derived from the generator's seed and its own sequence are
        identical no matter how many runs preceded this one in the same
        process — which is what makes a scenario's results bit-identical
        between serial execution and a ``--jobs`` worker pool.  Generators
        of one simulation get distinct seeds, so ids never collide.
        """
        return f"tx-{client}-s{self.seed}-{self.generated}"

    # ------------------------------------------------------------------
    # account selection
    # ------------------------------------------------------------------
    def _pick_account(self, shard: ShardId, exclude: AccountId | None = None) -> AccountId:
        """Pick an account of ``shard`` uniformly, other than ``exclude``."""
        accounts = self.mapper.accounts_in_shard(shard)
        for _ in range(16):
            candidate = AccountId(self.rng.randrange(accounts.start, accounts.stop))
            if candidate != exclude:
                return candidate
        # Extremely small shards can collide repeatedly; fall back linearly.
        for raw in accounts:
            if raw != exclude:
                return AccountId(raw)
        raise ConfigurationError(f"shard {shard} has no alternative account")

    def owner_of(self, account_id: AccountId) -> ClientId:
        """Client owning ``account_id`` under the stores' bootstrap rule.

        The rule lets every generated transaction's signer own its source
        account, the accounting application's validity condition.
        """
        return owner_of(account_id, self.config.num_clients)

    def _pick_amount(self) -> int:
        return self.rng.randint(self.config.min_amount, self.config.max_amount)

    # ------------------------------------------------------------------
    # transaction generation
    # ------------------------------------------------------------------
    def next_intra_shard(self, timestamp: float = 0.0, shard: ShardId | None = None) -> Transaction:
        """Generate an intra-shard transfer within ``shard`` (random if None)."""
        if shard is None:
            shard = ShardId(self.rng.randrange(self.num_shards))
        source = self._pick_account(shard)
        destination = self._pick_account(shard, exclude=source)
        client = self.owner_of(source)
        transaction = Transaction.multi_transfer(
            client=client,
            transfers=[Transfer(source=source, destination=destination, amount=self._pick_amount())],
            timestamp=timestamp,
            tx_id=self._next_tx_id(client),
        )
        self.generated += 1
        return transaction

    def next_cross_shard(self, timestamp: float = 0.0) -> Transaction:
        """Generate a cross-shard transaction over ``shards_per_cross_tx`` shards.

        All transfers share one source account (owned by the issuing
        client) and move funds to one account in each of the other chosen
        shards, so the transaction touches exactly the chosen shards.
        """
        shard_ids = self.rng.sample(range(self.num_shards), self.config.shards_per_cross_tx)
        shards = [ShardId(shard) for shard in shard_ids]
        source = self._pick_account(shards[0])
        transfers = []
        for shard in shards[1:]:
            destination = self._pick_account(shard)
            transfers.append(
                Transfer(source=source, destination=destination, amount=self._pick_amount())
            )
        client = self.owner_of(source)
        transaction = Transaction.multi_transfer(
            client=client,
            transfers=transfers,
            timestamp=timestamp,
            tx_id=self._next_tx_id(client),
        )
        self.generated += 1
        return transaction

    def next_transaction(self, timestamp: float = 0.0) -> Transaction:
        """Generate the next transaction of the configured mix."""
        if self.config.cross_shard_fraction and self.rng.random() < self.config.cross_shard_fraction:
            return self.next_cross_shard(timestamp)
        return self.next_intra_shard(timestamp)

    def stream(self, count: int, timestamp: float = 0.0) -> Iterator[Transaction]:
        """Yield ``count`` transactions."""
        for _ in range(count):
            yield self.next_transaction(timestamp)

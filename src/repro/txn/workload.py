"""Synthetic workload generation for the accounting application.

The paper's experiments control two knobs (Section 4):

* the percentage of cross-shard transactions (0%, 10%, 20%, 80%, 100%);
* the number of shards each cross-shard transaction touches (two,
  randomly chosen, in Figures 6 and 7; cross-shard transactions also
  touch two clusters in the scalability experiment of Figure 8).

:class:`WorkloadGenerator` reproduces that: it draws intra-shard
transactions uniformly over the shards and, with the configured
probability, emits a cross-shard transfer between accounts of distinct,
randomly chosen shards.  Account popularity within a shard is uniform by
default, optionally skewed by a *two-level hot-spot model*: a
``hot_account_fraction`` of each shard's accounts (the "hot set", the
lowest-numbered accounts) absorbs a ``hot_access_fraction`` of the
accesses, and the remaining accesses are uniform over the whole shard.
This is a flat hot/cold split, not a Zipf (power-law) distribution —
e.g. ``hot_account_fraction=0.1, hot_access_fraction=0.9`` gives the
classic "90% of traffic on 10% of accounts" contention profile.
Generation is seeded and fully deterministic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterator

from ..common.errors import ConfigurationError
from ..common.types import AccountId, ClientId, ShardId
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
    #: two-level hot-spot skew: fraction of each shard's accounts forming
    #: the hot set (0 = no hot set, uniform selection).  At least one
    #: account is hot whenever this is non-zero.
    hot_account_fraction: float = 0.0
    #: probability that an access targets the hot set (the remaining
    #: accesses draw uniformly over the whole shard, hot accounts
    #: included).  Only meaningful with ``hot_account_fraction > 0``.
    hot_access_fraction: float = 0.0
    #: how account ids map to shards: ``"range"`` (contiguous ranges,
    #: the default) or ``"modulo"`` (round-robin striping).  See
    #: :class:`repro.txn.accounts.ShardMapper`.
    partition_strategy: str = "range"

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
        if not 0.0 <= self.hot_account_fraction <= 1.0:
            raise ConfigurationError("hot_account_fraction must be within [0, 1]")
        if not 0.0 <= self.hot_access_fraction <= 1.0:
            raise ConfigurationError("hot_access_fraction must be within [0, 1]")
        if self.partition_strategy not in ShardMapper.STRATEGIES:
            raise ConfigurationError(
                f"unknown partition strategy {self.partition_strategy!r}; "
                f"expected one of {ShardMapper.STRATEGIES}"
            )


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
            mapper = ShardMapper(
                num_shards, config.accounts_per_shard, strategy=config.partition_strategy
            )
        elif (mapper.num_shards, mapper.accounts_per_shard, mapper.strategy) != (
            num_shards, config.accounts_per_shard, config.partition_strategy
        ):
            raise ConfigurationError("mapper does not match the workload's shard layout")
        self.config = config
        self.num_shards = num_shards
        self.mapper = mapper
        hot = config.hot_account_fraction
        #: size of every shard's hot set (0 = none; shards are equally large).
        self._hot_count = max(1, int(config.accounts_per_shard * hot)) if hot else 0
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
        """Pick an account of ``shard`` under the two-level hot-spot model.

        With probability ``hot_access_fraction`` the account is drawn
        uniformly from the shard's hot set (its first
        ``hot_account_fraction`` of accounts); otherwise uniformly from
        the whole shard.  The shard's account range is the mapper's and
        the hot-set size was resolved at construction; a pick only draws.
        """
        accounts = self.mapper.accounts_in_shard(shard)
        config = self.config
        hot_count = self._hot_count
        # The range strategy keeps the historical draw over raw ids so
        # seeded workloads stay bit-identical; striped (modulo) shards
        # draw an index into the progression instead.
        contiguous = accounts.step == 1
        for _ in range(16):
            if hot_count and self.rng.random() < config.hot_access_fraction:
                candidate = AccountId(accounts[self.rng.randrange(hot_count)])
            elif contiguous:
                candidate = AccountId(self.rng.randrange(accounts.start, accounts.stop))
            else:
                candidate = AccountId(accounts[self.rng.randrange(len(accounts))])
            if candidate != exclude:
                return candidate
        # Extremely small shards can collide repeatedly; fall back linearly.
        for raw in accounts:
            if raw != exclude:
                return AccountId(raw)
        raise ConfigurationError(f"shard {shard} has no alternative account")

    def owner_of(self, account_id: AccountId) -> ClientId:
        """Application client that owns ``account_id``.

        Ownership follows a fixed modulo assignment so that the generator
        can always produce transactions whose signer owns the source
        account (the validity condition of the accounting application).
        The system builder bootstraps the account stores with the same
        assignment.
        """
        return ClientId(account_id % self.config.num_clients)

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

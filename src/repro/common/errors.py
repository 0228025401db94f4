"""Exception hierarchy for the SharPer reproduction.

All library-raised exceptions derive from :class:`SharPerError` so that
callers can catch a single base class.  Programming errors (wrong types,
impossible configurations) raise the standard ``ValueError``/``TypeError``
instead.
"""

from __future__ import annotations


class SharPerError(Exception):
    """Base class for every error raised by this library."""


class ConfigurationError(SharPerError):
    """An invalid system, cluster, or workload configuration was supplied."""


class RegistrationError(ConfigurationError):
    """A system registration conflicts with an existing registry entry."""


class UnknownSystemError(SharPerError, KeyError):
    """A scenario or experiment named a system that is not registered.

    Subclasses :class:`KeyError` because the registry is a mapping and
    historical callers catch ``KeyError`` on lookup failures.
    """

    def __str__(self) -> str:  # KeyError repr-quotes its message; undo that.
        return Exception.__str__(self)


class LedgerError(SharPerError):
    """Base class for ledger/DAG consistency problems."""


class UnknownBlockError(LedgerError):
    """A referenced block hash does not exist in the ledger view."""


class ForkError(LedgerError):
    """Two distinct blocks claim the same slot in a cluster's chain."""


class HashChainError(LedgerError):
    """A block's parent-hash reference does not match the chain."""


class ValidationError(SharPerError):
    """A transaction failed application-level validation.

    For the accounting application this covers unknown accounts,
    insufficient balances, and ownership (signature) failures.
    """


class InsufficientBalanceError(ValidationError):
    """The source account does not hold enough funds for the transfer."""


class UnknownAccountError(ValidationError):
    """The transaction references an account that does not exist."""


class ConsensusError(SharPerError):
    """Base class for consensus-protocol errors."""


class SimulationError(SharPerError):
    """Base class for simulator misuse (e.g. scheduling in the past)."""


class NetworkError(SimulationError):
    """A message could not be routed (unknown destination, closed link)."""

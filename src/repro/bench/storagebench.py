"""Storage benchmark: digest-cost curve and the bounded-memory longrun.

Run as a module and it writes ``BENCH_storage.json``::

    PYTHONPATH=src python -m repro.bench.storagebench            # full config
    PYTHONPATH=src python -m repro.bench.storagebench --quick    # CI smoke

Two workloads are measured:

* **digest curve** — per store backend, the cost of ``state_digest()``
  after a fixed number of account writes, across account populations.
  The incremental digest (dict and columnar backends) re-hashes only the
  touched accounts, so its cost should stay flat as the population
  grows; the naive sorted full-table digest is measured alongside as the
  scaling foil.  Rounds are interleaved across series (min-of-N per
  cell) to cancel host-speed drift on a single-core box.
* **longrun** — a checkpointed SharPer run on the columnar backend with
  a sqlite archive attached: a million-account keyspace, multi-million
  committed transfers, bounded resident block count (checkpoint GC
  spills to the archive), followed by the offline archive audit.

``--quick`` shrinks both parts for CI; quick numbers are not comparable
with full runs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import tempfile
import time

from ..api import DeploymentSpec, Scenario
from ..common.types import FaultModel
from ..storage import audit_archive, make_store
from ..txn.accounts import ShardMapper
from ..txn.workload import WorkloadConfig

__all__ = ["digest_curve", "longrun", "main"]


def _touch(store, account_ids) -> None:
    """Apply one deposit per id (the write pattern between checkpoints)."""
    for account_id in account_ids:
        store.deposit(account_id, 1)


def _time_min(cell: dict[str, float], key: str, call):
    """Run ``call``; keep its wall milliseconds in ``cell[key]`` if the lowest so far."""
    start = time.perf_counter()
    value = call()
    elapsed_ms = (time.perf_counter() - start) * 1e3
    cell[key] = min(elapsed_ms, cell.get(key, elapsed_ms))
    return value


def digest_curve(
    account_counts=(10_000, 100_000, 1_000_000),
    writes_per_round: int = 1_000,
    rounds: int = 3,
) -> dict:
    """Digest cost per backend after ``writes_per_round`` writes.

    Returns min-of-``rounds`` wall milliseconds per (series, account
    count) cell.  Series:

    * ``dict_incremental`` / ``columnar_incremental`` — the production
      path: pre-images folded out of / current values folded into the
      additive digest accumulator;
    * ``clone_first_digest_ms`` — the *first* digest of a columnar clone
      of an undigested prototype after the same writes (a replica's
      first checkpoint): the prototype's table scan is shared, so this
      tracks the incremental series, not the population;
    * ``columnar_naive_sorted`` — full sorted-table recomputation, the
      pre-incremental behaviour, measured as the scaling reference.
    """
    rounds = max(rounds, 1)
    stores: dict[tuple[str, int], object] = {}
    clones: dict[int, list] = {}
    for count in account_counts:
        mapper = ShardMapper(num_shards=1, accounts_per_shard=count)
        for backend in ("dict", "columnar"):
            store = make_store(backend, shard=0, mapper=mapper, initial_balance=1000)
            store.state_digest()  # prime the accumulator; start incremental
            stores[(backend, count)] = store
        # Like a deployment: clones of a prototype nobody digests or writes;
        # the first one to checkpoint triggers the shard's one table scan.
        prototype = make_store("columnar", shard=0, mapper=mapper, initial_balance=1000)
        clones[count] = [prototype.clone() for _ in range(rounds + 1)]
        clones[count].pop().state_digest()
    results: dict[str, dict[str, float]] = {
        "dict_incremental": {},
        "columnar_incremental": {},
        "clone_first_digest_ms": {},
        "columnar_naive_sorted": {},
    }
    for _ in range(rounds):
        for count in account_counts:
            key = str(count)
            touched = range(0, count, max(1, count // writes_per_round))
            for backend in ("dict", "columnar"):
                store = stores[(backend, count)]
                _touch(store, touched)
                _time_min(results[f"{backend}_incremental"], key, store.state_digest)
            clone = clones[count].pop()
            _touch(clone, touched)
            _time_min(results["clone_first_digest_ms"], key, clone.state_digest)
            assert clone.state_digest() == clone.naive_state_digest(), "clone digest diverged"
            store = stores[("columnar", count)]
            naive = _time_min(results["columnar_naive_sorted"], key, store.naive_state_digest)
            assert naive == store.state_digest(), "incremental digest diverged"
    return {
        "account_counts": list(account_counts),
        "writes_per_round": writes_per_round,
        "rounds": rounds,
        "series_ms": {
            name: {key: round(value, 3) for key, value in cells.items()}
            for name, cells in results.items()
        },
    }


def longrun(
    num_clusters: int = 4,
    accounts_per_shard: int = 250_000,
    clients: int = 64,
    duration: float = 110.0,
    checkpoint_interval: int = 64,
    archive_path: str | None = None,
    seed: int = 11,
) -> dict:
    """Checkpointed columnar + archive run, then the offline audit.

    The defaults cover a one-million-account keyspace; ``duration`` is
    simulated seconds, sized so the committed transfer count reaches
    into the millions.  ``archive_path`` defaults to a temporary file
    (deleted afterwards).
    """
    with tempfile.TemporaryDirectory(prefix="sharper-archive-") as scratch:
        if archive_path is None:
            archive_path = os.path.join(scratch, "archive.db")
        scenario = Scenario(
            deployment=DeploymentSpec(
                system="sharper",
                fault_model=FaultModel.CRASH,
                num_clusters=num_clusters,
                checkpoint_interval=checkpoint_interval,
                store_backend="columnar",
                archive=archive_path,
            ),
            workload=WorkloadConfig(
                cross_shard_fraction=0.1, accounts_per_shard=accounts_per_shard
            ),
            clients=clients,
            duration=duration,
            warmup=min(0.06, duration / 5),
            seed=seed,
        )
        wall_start = time.perf_counter()
        result = scenario.run()
        run_wall = time.perf_counter() - wall_start
        result.raise_if_failed()
        audit_start = time.perf_counter()
        report = audit_archive(result.system.archive)
        audit_wall = time.perf_counter() - audit_start
        return {
            "num_clusters": num_clusters,
            "accounts": num_clusters * accounts_per_shard,
            "clients": clients,
            "duration_sim_s": duration,
            "checkpoint_interval": checkpoint_interval,
            "committed": result.stats.committed,
            "committed_cross": result.stats.committed_cross,
            "throughput_tps": round(result.throughput, 1),
            **result.storage.as_dict(),
            "audit_ok": report.ok,
            "audit_problems": report.problems,
            "audit_checkpoints_verified": report.checkpoints_verified,
            "audit_txs_replayed": report.txs_replayed,
            "run_wall_s": round(run_wall, 2),
            "audit_wall_s": round(audit_wall, 2),
        }


def run(quick: bool = False, archive_path: str | None = None) -> dict:
    """Execute both parts and assemble the report dictionary."""
    if quick:
        curve = digest_curve(
            account_counts=(1_000, 10_000, 100_000), writes_per_round=500, rounds=2
        )
        long_report = longrun(
            num_clusters=3,
            accounts_per_shard=4_096,
            clients=24,
            duration=1.0,
            checkpoint_interval=16,
            archive_path=archive_path,
        )
    else:
        curve = digest_curve()
        long_report = longrun(archive_path=archive_path)
    return {
        "schema": "sharper-storagebench/1",
        "host": {
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "quick": quick,
        "digest_curve": curve,
        "longrun": long_report,
    }


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.bench.storagebench",
        description="Measure digest scaling and the archived bounded-memory longrun.",
    )
    parser.add_argument(
        "--output", default="BENCH_storage.json", help="where to write the JSON report"
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="small configuration for CI smoke runs (not comparable to full runs)",
    )
    parser.add_argument(
        "--archive", default=None, metavar="PATH",
        help="keep the longrun's sqlite archive at PATH instead of a "
        "deleted temporary file",
    )
    args = parser.parse_args(argv)
    report = run(quick=args.quick, archive_path=args.archive)
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    curve = report["digest_curve"]
    for name, cells in curve["series_ms"].items():
        rendered = ", ".join(f"{key}: {value}ms" for key, value in cells.items())
        print(f"digest {name:24s} {rendered}")
    long_report = report["longrun"]
    print(
        f"longrun    : {long_report['committed']:,} txs over "
        f"{long_report['accounts']:,} accounts, "
        f"ledger peak {long_report['peak_ledger_blocks']} blocks, "
        f"archive {long_report['archive_blocks']:,} blocks / "
        f"{long_report['archive_bytes']:,} bytes"
    )
    print(
        f"audit      : {'OK' if long_report['audit_ok'] else long_report['audit_problems']} "
        f"({long_report['audit_checkpoints_verified']} checkpoints, "
        f"{long_report['audit_txs_replayed']:,} txs replayed)"
    )
    print(f"report     : {args.output}")
    return 0 if long_report["audit_ok"] else 1


if __name__ == "__main__":  # pragma: no cover - exercised via CI smoke job
    raise SystemExit(main())

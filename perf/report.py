"""Noise statistics, tables and the two-result comparison.

Everything here is arithmetic on already-measured numbers; nothing in
this file runs the program.
"""

from __future__ import annotations

import statistics

__all__ = ["compare", "format_metrics", "format_noise", "summarize"]


def summarize(values: list[float], bound: float | None = None) -> dict:
    """Median, minimum, quartiles, n and IQR / median of repeated measurements.

    ``unresolved`` is true when the spread exceeds ``bound``: the
    repeats disagree by more than the change the metric is supposed to
    detect, so a comparison on it proves nothing either way.
    """
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    spread = (q3 - q1) / median if median else 0.0
    return {
        "n": len(values),
        "min": min(values),
        "q1": q1,
        "median": median,
        "q3": q3,
        "spread": spread,
        "unresolved": bound is not None and spread > bound,
    }


def format_noise(noise: dict[str, dict]) -> list[str]:
    """One line per repeated host measurement: median, min, quartiles, n, spread."""
    lines = []
    for name, row in noise.items():
        flag = "  UNRESOLVED (spread > bound)" if row["unresolved"] else ""
        lines.append(
            f"  {name:<26} median {row['median']:.6g}  min {row['min']:.6g}  "
            f"q1 {row['q1']:.6g}  q3 {row['q3']:.6g}  n {row['n']}  "
            f"IQR/median {row['spread']:.2%}{flag}"
        )
    return lines


def format_metrics(metrics: dict[str, dict]) -> list[str]:
    """``name value unit`` lines in emission order."""
    width = max(len(name) for name in metrics)
    return [
        f"  {name:<{width}}  {row['value']:>14.6g} {row['unit']}" for name, row in metrics.items()
    ]


def _worse_by(base: float, other: float, better: str) -> float:
    """How much worse ``other`` is than ``base``, as a share of ``base``."""
    if base == 0:
        return 0.0 if other == base else float("inf")
    change = (other - base) / abs(base)
    return change if better == "lower" else -change


def compare(first: dict, second: dict, end_to_end: list[dict]) -> tuple[list[str], bool]:
    """Every (end-to-end metric, workload) ratio of two result files.

    ``first`` is the base of every ratio.  Verdicts: ``identical``,
    ``ok`` (no worse than the bound), ``REGRESSED`` (worse by more than
    the bound) and ``UNRESOLVED`` (either side's own repeats spread
    wider than the bound).  Returns the lines and whether nothing
    regressed; correctness and failed share must match exactly.
    """
    lines = [
        f"base  : {first['manifest']['git_sha']} seed {first['manifest']['seed']}",
        f"other : {second['manifest']['git_sha']} seed {second['manifest']['seed']}",
        f"{'workload':<14} {'metric':<26} {'base':>12} {'other':>12} {'ratio':>8}  "
        f"{'bound':>6}  verdict",
    ]
    ok = True
    for name, base_row in first["workloads"].items():
        other_row = second["workloads"].get(name)
        if other_row is None:
            lines.append(f"{name:<14} missing from the second result")
            ok = False
            continue
        for key in ("correct", "failed_share"):
            if base_row[key] != other_row[key]:
                lines.append(f"{name:<14} {key}: {base_row[key]} != {other_row[key]}  REGRESSED")
                ok = False
        for metric in end_to_end:
            key, bound = metric["name"], metric["bound"]
            base = base_row["end_to_end"].get(key)
            other = other_row["end_to_end"].get(key)
            if base is None or other is None:
                lines.append(f"{name:<14} {key:<26} missing")
                ok = False
                continue
            spreads = [
                row["noise"][key]["spread"] for row in (base_row, other_row) if key in row["noise"]
            ]
            worse = _worse_by(base["value"], other["value"], metric["better"])
            if base["value"] == other["value"]:
                verdict = "identical"
            elif any(spread > bound for spread in spreads):
                verdict = f"UNRESOLVED (spread {max(spreads):.1%})"
            elif worse > bound:
                verdict = "REGRESSED"
                ok = False
            else:
                verdict = "ok"
            ratio = other["value"] / base["value"] if base["value"] else float("nan")
            lines.append(
                f"{name:<14} {key:<26} {base['value']:>12.6g} {other['value']:>12.6g} "
                f"{ratio:>8.4f}  {bound:>6.0%}  {verdict}"
            )
    return lines, ok

"""Benchmark harness: figure definitions, load sweeps, reporting."""

from .experiments import (
    FIGURES,
    FULL_CLIENTS,
    QUICK_CLIENTS,
    FigureResult,
    FigureSpec,
    SeriesSpec,
    list_figures,
    run_figure,
)
from .harness import Curve, CurvePoint, run_curve
from .reporting import figure_to_csv, format_figure, format_table, write_csv

__all__ = [
    "Curve",
    "CurvePoint",
    "FIGURES",
    "FULL_CLIENTS",
    "FigureResult",
    "FigureSpec",
    "QUICK_CLIENTS",
    "SeriesSpec",
    "figure_to_csv",
    "format_figure",
    "format_table",
    "list_figures",
    "run_curve",
    "run_figure",
    "write_csv",
]

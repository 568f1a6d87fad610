"""Experiment drivers: one module per table/figure of the paper.

Each module exposes ``run(...) -> (rows, text)`` where ``rows`` is the raw
data (a list of dict rows or an equivalent structure) and ``text`` is the
formatted table printed by the runner.  :mod:`repro.experiments.runner`
regenerates every experiment in sequence and is what ``EXPERIMENTS.md`` was
produced from; it is not imported here, so ``python -m
repro.experiments.runner`` runs it once, as ``__main__``.
"""

from repro.experiments import (
    extension_fp8,
    fig3,
    fig4,
    fig5,
    fig6,
    table1,
    table2,
    table3,
    table4,
)

__all__ = [
    "extension_fp8",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "table1",
    "table2",
    "table3",
    "table4",
]

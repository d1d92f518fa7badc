"""Paper-artifact generators: Tables I-III, Section V, Figure 1, ablations,
and the edge analyses behind the remaining experiment commands.

Importing this package registers every artifact family with
:mod:`repro.lab` (import order below fixes the registration order,
which is the order ``repro-edge list`` and ``all`` use).
"""

from .report import Table, ascii_plot, render_json, table_from_payload, table_to_payload
from .tables import (
    TableResult,
    compare_to_paper,
    memory_models,
    table1,
    table2,
    table3,
    table_result_from_payload,
)
from .section5 import Section5Row, section5_sweep, section5_table
from .figure1 import (
    PANELS,
    Figure1Series,
    default_rhos,
    figure1_ascii,
    figure1_joint_panel,
    figure1_panel,
)
from .ablation import (
    BatchPoint,
    batch_tradeoff,
    batch_tradeoff_table,
    strategy_ablation,
    strategy_ablation_table,
)
from .sensitivity import (
    SensitivityPoint,
    fit_rho,
    sensitivity_sweep,
    sensitivity_table,
)
from .extended import ExtendedRow, extended_model_rows, extended_model_table
from .megafleet import megafleet_ascii, megafleet_csv, run_megafleet_payload
from .summary import SUMMARY_DEPS
from . import commands  # noqa: F401  (registers the edge-analysis specs)

__all__ = [
    "Table",
    "ascii_plot",
    "render_json",
    "table_to_payload",
    "table_from_payload",
    "TableResult",
    "table1",
    "table2",
    "table3",
    "compare_to_paper",
    "table_result_from_payload",
    "memory_models",
    "Section5Row",
    "section5_sweep",
    "section5_table",
    "PANELS",
    "Figure1Series",
    "default_rhos",
    "figure1_panel",
    "figure1_ascii",
    "figure1_joint_panel",
    "strategy_ablation",
    "strategy_ablation_table",
    "BatchPoint",
    "batch_tradeoff",
    "batch_tradeoff_table",
    "SensitivityPoint",
    "fit_rho",
    "sensitivity_sweep",
    "sensitivity_table",
    "ExtendedRow",
    "extended_model_rows",
    "extended_model_table",
    "megafleet_ascii",
    "megafleet_csv",
    "run_megafleet_payload",
    "SUMMARY_DEPS",
]

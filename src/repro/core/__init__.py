"""Experiment flow: design preparation, Table 1 reporting, ablations."""

from repro.core.ablation import (
    compaction_ablation,
    edt_ablation,
    inter_domain_ablation,
    pulse_count_ablation,
)
from repro.core.flow import PreparedDesign, instrument_soc, prepare_design
from repro.core.results import (
    ClaimCheck,
    compare_with_paper,
    format_comparison,
    format_table1,
    results_as_records,
)

__all__ = [
    "ClaimCheck",
    "PreparedDesign",
    "compaction_ablation",
    "compare_with_paper",
    "edt_ablation",
    "format_comparison",
    "format_table1",
    "instrument_soc",
    "inter_domain_ablation",
    "prepare_design",
    "pulse_count_ablation",
    "results_as_records",
]

"""Look-ahead partial-sort batching for variable-length paired corpora.

A buffered loader (batch size m, look-ahead k) sorts m*k pairs at a time by
length before chunking, trading padding waste against batch stochasticity.
This package provides the loader, two reference policies (shuffled chunking
and whole-epoch sorting), synthetic corpus generation, padding-cost
accounting, and i.i.d.-violation diagnostics, plus a CLI tying them together.
"""

from .batcher import (
    FULL_SORT,
    PARTIAL_SORT,
    POLICIES,
    UNSORTED,
    Batch,
    BatchPlanConfig,
    BatchStream,
    epoch_order,
    epoch_shuffle_seed,
    epoch_shuffles,
    run_epochs,
)
from .corpus import (
    Corpus,
    CorpusFormatError,
    LengthStats,
    SentencePair,
    SynthParams,
    compute_stats,
    corpus_hash,
    filter_max_len,
    load_corpus,
    shuffle,
    synth_generate,
    write_lengths_tsv,
)
from .cost import (
    BatchCost,
    CostComparison,
    RunReport,
    compare_costs,
    cost_of_batch,
    summarize_run,
)
from .diagnostics import (
    METRICS,
    BatchSeries,
    IIDReport,
    autocorrelation,
    cycle_analysis,
    extract_series,
    iid_report,
)

__version__ = "0.1.0"

__all__ = [
    "PARTIAL_SORT",
    "UNSORTED",
    "FULL_SORT",
    "POLICIES",
    "Batch",
    "BatchPlanConfig",
    "BatchStream",
    "epoch_order",
    "epoch_shuffle_seed",
    "epoch_shuffles",
    "run_epochs",
    "Corpus",
    "CorpusFormatError",
    "LengthStats",
    "SentencePair",
    "SynthParams",
    "compute_stats",
    "corpus_hash",
    "filter_max_len",
    "load_corpus",
    "shuffle",
    "synth_generate",
    "write_lengths_tsv",
    "BatchCost",
    "CostComparison",
    "RunReport",
    "compare_costs",
    "cost_of_batch",
    "summarize_run",
    "METRICS",
    "BatchSeries",
    "IIDReport",
    "autocorrelation",
    "cycle_analysis",
    "extract_series",
    "iid_report",
    "__version__",
]

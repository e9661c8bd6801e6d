"""Deterministic random-indexing semantic spaces per time slice.

Build one space per epoch of a corpus from token-keyed random seed vectors,
combine them by plain summation, and compare vectors across epochs to track
how word usage moves: neighbor trajectories, inter-period drift, gendered
qualifier attribution, cross-epoch equivalents, and positional prediction
from permutation-tagged order vectors.
"""

from .corpus import build_filter, tokenize
from .diachronic import (
    DriftRecord,
    DriftReport,
    EquivalenceReport,
    GenderReport,
    TrajectoryReport,
    drift,
    equivalents,
    predict_position,
    qualifier_gender,
    time_trajectory,
)
from .errors import (
    BadMagicError,
    ChecksumError,
    CombineMismatchError,
    ConfigError,
    DriftspaceError,
    MissingDataError,
    SpaceFormatError,
    TermNotFoundError,
    TruncatedFileError,
    UndefinedSimilarityError,
    VersionMismatchError,
)
from .persistence import (
    combine_files,
    equivalents_files,
    load_space,
    load_spaces,
    save_space,
    write_space_tsv,
)
from .space import (
    NeighborIndex,
    SemanticSpace,
    SpaceConfig,
    TermEntry,
    combine,
    inverse_log_weights,
    norm_frequency_series,
)
from .vectors import (
    PermutationSet,
    apply_permutation,
    cosine,
    seed_vector,
    token_hash,
)

__version__ = "0.1.0"

__all__ = [
    "BadMagicError",
    "ChecksumError",
    "CombineMismatchError",
    "ConfigError",
    "DriftRecord",
    "DriftReport",
    "DriftspaceError",
    "EquivalenceReport",
    "GenderReport",
    "MissingDataError",
    "NeighborIndex",
    "PermutationSet",
    "SemanticSpace",
    "SpaceConfig",
    "SpaceFormatError",
    "TermEntry",
    "TermNotFoundError",
    "TrajectoryReport",
    "TruncatedFileError",
    "UndefinedSimilarityError",
    "VersionMismatchError",
    "apply_permutation",
    "build_filter",
    "combine",
    "combine_files",
    "cosine",
    "drift",
    "equivalents",
    "equivalents_files",
    "inverse_log_weights",
    "load_space",
    "load_spaces",
    "norm_frequency_series",
    "predict_position",
    "qualifier_gender",
    "save_space",
    "seed_vector",
    "time_trajectory",
    "token_hash",
    "tokenize",
    "write_space_tsv",
]

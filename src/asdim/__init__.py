"""Asymptotic dimension bounds for one-relator groups.

Given a presentation with a single defining relator r, build a chain of
decomposition steps (free splits, single-occurrence eliminations, HNN
rewrites, zero-sum embeddings) ending in free or finite cyclic groups.
The chain certifies asdim G <= ceil(|r| / 2) and usually a tighter bound,
and an independent verifier replays every step from word arithmetic
alone.
"""

from .certio import (
    CertificateError,
    emit_certificate,
    parse_certificate,
    render_tree,
)
from .presentations import (
    EmptyGeneratorsError,
    ParseError,
    Presentation,
    UnknownGeneratorError,
    format_presentation,
    letters_of,
    parse_presentation,
)
from .rewriting import (
    RenameEntry,
    choose_embedding_pair,
    find_single_occurrence,
    find_zero_exponent,
    hnn_rewrite,
    split_free_part,
    tally,
    zero_sum_embedding,
)
from .sampling import (
    all_cyclically_reduced_words,
    random_cyclically_reduced_word,
    random_presentation,
    random_reduced_word,
)
from .tower import (
    BoundReport,
    CyclicLeaf,
    EmbedStep,
    FreeLeaf,
    FreeSplit,
    HnnStep,
    Node,
    SingleElim,
    all_towers,
    best_tower,
    build_tower,
    ceil_half,
    summarize,
    walk,
)
from .verify import VerificationReport, Violation, verify_certificate
from .words import (
    EMPTY_WORD,
    Generator,
    Letter,
    Registry,
    Word,
    concat,
    cyclic_reduce,
    equal_as_cyclic_words,
    exponent_sum,
    format_word,
    generator_power,
    inverse,
    occurrence_count,
    reduce_word,
    single,
    substitute,
)

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "CertificateError",
    "CyclicLeaf",
    "EMPTY_WORD",
    "EmbedStep",
    "EmptyGeneratorsError",
    "FreeLeaf",
    "FreeSplit",
    "Generator",
    "HnnStep",
    "Letter",
    "Node",
    "ParseError",
    "Presentation",
    "Registry",
    "RenameEntry",
    "SingleElim",
    "UnknownGeneratorError",
    "VerificationReport",
    "Violation",
    "Word",
    "all_cyclically_reduced_words",
    "all_towers",
    "best_tower",
    "build_tower",
    "ceil_half",
    "choose_embedding_pair",
    "concat",
    "cyclic_reduce",
    "emit_certificate",
    "equal_as_cyclic_words",
    "exponent_sum",
    "find_single_occurrence",
    "find_zero_exponent",
    "format_presentation",
    "format_word",
    "generator_power",
    "hnn_rewrite",
    "inverse",
    "letters_of",
    "occurrence_count",
    "parse_certificate",
    "parse_presentation",
    "random_cyclically_reduced_word",
    "random_presentation",
    "random_reduced_word",
    "reduce_word",
    "render_tree",
    "single",
    "split_free_part",
    "substitute",
    "summarize",
    "tally",
    "verify_certificate",
    "walk",
    "zero_sum_embedding",
    "__version__",
]

"""Text data-augmentation toolkit and statistical benchmark harness.

Three augmentation families (edit operations, sequential word
replacement, back translation) feed an embedding + SVM classification
pipeline whose paired baseline/augmented models are compared with the
continuity-corrected McNemar test across a seeded experiment grid.
"""

__version__ = "0.1.0"

from .corpus import Dataset, LabeledExample, SplitPair, tokenize
from .metrics import EvalReport, evaluate
from .resources import EmbeddingStore, SynonymMap
from .stats import ContingencyTable, TestResult, mcnemar
from .svm import SvmConfig, SvmModel, svm_predict, svm_train

__all__ = [
    "Dataset",
    "LabeledExample",
    "SplitPair",
    "tokenize",
    "EvalReport",
    "evaluate",
    "EmbeddingStore",
    "SynonymMap",
    "ContingencyTable",
    "TestResult",
    "mcnemar",
    "SvmConfig",
    "SvmModel",
    "svm_predict",
    "svm_train",
    "__version__",
]

"""Note-to-dialogue synthesis and evaluation toolkit."""

from .backend import MockBackend
from .concepts import load_lexicon, load_lexicon_file
from .metrics import evaluate_corpus
from .model import ClinicalNote, GenerationConfig
from .refiner import run_full_pipeline

__version__ = "0.1.0"

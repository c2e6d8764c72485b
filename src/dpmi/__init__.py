"""dpmi: differentially private one-vs-all mutual information ranking."""

from .evaluation import synth_generate
from .mi import rank_records
from .model import PrivacyConfig, Record

__version__ = "0.1.0"

__all__ = ["PrivacyConfig", "Record", "rank_records", "synth_generate"]

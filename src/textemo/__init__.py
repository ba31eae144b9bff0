"""Emotion prediction over post-ASR transcripts.

Pipeline stages: corpus loading and id parsing, WER analysis, transcription
refinement, context windowing, prompt rendering, annotator backends, and
evaluation. See the cli module for the batch entry points.

Names are imported from their stage module (``from textemo.corpus import
load_corpus``), so ``import textemo`` loads no stage, and a command loads
only the stages it runs.
"""

__version__ = "0.1.0"

"""Run the command-line interface as ``python -m partsums``."""

from .cli import entry

entry()

"""``python -m gqsbnet``: the command line, as the ``gqsbnet`` script runs it."""

from .cli import entry

entry()

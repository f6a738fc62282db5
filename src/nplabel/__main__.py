"""``python -m nplabel``: the command-line interface."""

import sys

from . import cli

sys.exit(cli.main())

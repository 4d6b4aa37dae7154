"""`python -m redarg`: the redarg command line (redarg.cli.main)."""

import sys

from .cli import main

sys.exit(main())

"""`python -m satsync` runs the command-line interface."""

import sys

from .cli_io import main

sys.exit(main())

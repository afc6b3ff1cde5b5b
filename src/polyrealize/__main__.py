"""``python -m polyrealize``: the command-line front end of ``polyrealize.cli``."""

import sys

from .cli import main

sys.exit(main())

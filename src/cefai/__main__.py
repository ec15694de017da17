"""``python -m cefai``: the command-line interface of ``cefai.cli``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())

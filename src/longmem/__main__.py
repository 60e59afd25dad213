"""``python -m longmem``: the same command-line tool as ``longmem``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())

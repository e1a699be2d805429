"""``python -m curlearn``: the same command line as the ``curlearn`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())

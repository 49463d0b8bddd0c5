"""``python -m dpcolor``: the same command line as the ``dpcolor`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())

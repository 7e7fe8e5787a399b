"""``python -m perfbench``: see :mod:`perfbench.cli`."""

import sys

from perfbench.cli import main

if __name__ == "__main__":
    sys.exit(main())

"""Entry point for `python -m abcode`; the same as the `abcode` command."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())

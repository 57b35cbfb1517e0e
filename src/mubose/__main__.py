"""``python -m mubose``: the mubose command line, as the installed ``mubose`` script runs it."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())

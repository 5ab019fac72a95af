"""`python -m parkline`: the command-line front end (see `parkline.cli`)."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())

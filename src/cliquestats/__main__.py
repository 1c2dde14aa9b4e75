"""python -m cliquestats: the command line of cliquestats.cli."""

import sys

from .cli import main

sys.exit(main())

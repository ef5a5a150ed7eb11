"""``python -m glap``: the ``glap`` command line, for a checkout that has
no installed ``glap`` script."""

import sys

from .cli import main

sys.exit(main())

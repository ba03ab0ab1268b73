"""``python -m qutrit_dba``: the ``simulate`` command line."""

import sys

from .harness import main

sys.exit(main())

"""``python -m benchmarks.layered``: all five workloads (see ``suite.py``)."""

import sys

from .suite import main

sys.exit(main())

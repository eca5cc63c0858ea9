"""Run by explicit path (``python -m pytest benchmarks/e2e/tests``), not tier-1.

The benchmark's modules are plain scripts beside ``run.py``; put their
directory first on ``sys.path`` the way running ``run.py`` does.
"""

import os
import sys

E2E = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, E2E)

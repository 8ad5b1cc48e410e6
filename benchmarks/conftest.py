"""Make the shared bench helpers importable when pytest runs benchmarks/.

Benchmarks always run with the runtime sanitizer off: its per-collective
checks would perturb the timings being measured.
"""

import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

os.environ["REPRO_SIMSAN"] = "0"

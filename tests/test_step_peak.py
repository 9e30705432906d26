"""Memory guard: one TSR-on training step keeps no more than it did when the graph
began to save only what each backward reads.

``tools/step_peak.py`` measures each step's ``tracemalloc`` peak above the
pre-step baseline in a fresh interpreter. A change that makes some backward
hold an array it does not read again (say, ``linear`` keeping its input
for a frozen weight) pushes the peak over its bound here.
"""

import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"
if str(TOOLS) not in sys.path:
    sys.path.insert(0, str(TOOLS))

from step_peak import step_peaks  # noqa: E402

# MiB measured with the saved-tensor graph and forward ops that reuse their
# temporaries; 10.85 (toy) and 116.84 (tiny) before the reuse, and a graph
# that kept every node's parents read 21.1 and 259.6 (258.1 by this helper)
STEP_PEAK_MIB = {"toy": 10.32, "tiny": 114.55}
SLACK = 1.01


def test_training_step_peaks_stay_within_one_percent():
    peaks = step_peaks()
    assert set(peaks) == set(STEP_PEAK_MIB)
    for recipe, bound in STEP_PEAK_MIB.items():
        assert peaks[recipe] <= bound * SLACK, f"{recipe}: {peaks[recipe]:.2f} MiB"

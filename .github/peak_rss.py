"""Run a command and fail if it fails or if its peak RSS exceeds a budget.

Usage: python3 .github/peak_rss.py BUDGET_MB COMMAND [ARG ...]

The peak is the largest resident set of the command's process tree, as
``getrusage(RUSAGE_CHILDREN)`` reports it (in KiB on Linux).
"""

import resource
import subprocess
import sys

if len(sys.argv) < 3:
    sys.exit(__doc__)
budget_mb = float(sys.argv[1])
code = subprocess.run(sys.argv[2:]).returncode
peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
print(f"peak RSS {peak_mb:.1f} MB, budget {budget_mb:g} MB")
sys.exit(code or int(peak_mb > budget_mb))

"""Set-up probe: a fresh interpreter imports chaoslim and builds one
workload's config, laws and systems, then exits.  The caller times the
whole process.

    python3 bench/probe.py <workload> <study-config.json>
"""

import sys

from workloads import WORKLOADS, set_up

if __name__ == "__main__":
    set_up(WORKLOADS[sys.argv[1]], sys.argv[2])

"""Run one `gpd` command with module-boundary spans and write its layer metrics.

    python3 perfbench/traced_gpd.py SRC_DIR METRICS_JSON gpd-args...

SRC_DIR is the source tree the command must import gpd from; the run fails
if gpd comes from anywhere else.  Standard output is the command's own
output, byte for byte.
"""

from __future__ import annotations

import json
import os
import sys

from tracer import Tracer


def main() -> int:
    src, metrics_path, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    import gpd
    import gpd.cli

    where = os.path.realpath(gpd.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        print(f"gpd imported from {where}, not from {src}", file=sys.stderr)
        return 3
    tracer = Tracer()
    tracer.install(gpd)
    rc = tracer.root(gpd.cli.main, argv)
    sys.stdout.flush()
    with open(metrics_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.metrics(), fh, sort_keys=True)
    return rc


if __name__ == "__main__":
    sys.exit(main())

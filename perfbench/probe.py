"""Set-up probe: import qmapft and load a list of inputs in a fresh process.

    python3 probe.py SRC_DIR LISTING_JSON

LISTING_JSON holds [loader, path] pairs, loader "process" or "map".  Prints
the seconds from before the import to after the last load.
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    src, listing = sys.argv[1], sys.argv[2]
    sys.path.insert(0, src)
    from qmapft.serialize import load_map_file, load_process_file

    with open(listing) as fh:
        inputs = json.load(fh)
    for loader, path in inputs:
        if loader == "process":
            load_process_file(path)
        else:
            load_map_file(path)
    print(time.perf_counter() - START)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

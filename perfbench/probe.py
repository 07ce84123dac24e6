"""Set-up probe: a fresh interpreter imports qmaxemu and loads the inputs.

Usage: probe.py SRC_DIR [GRAPH_FILE ...].  Prints the system-wide monotonic
clock reading at the moment the first request could start, so the caller can
subtract its own reading taken just before it started this process.
"""

import sys
import time


def main(src: str, graph_files: list[str]) -> None:
    sys.path.insert(0, src)
    import qmaxemu  # numpy and scipy come with it

    for path in graph_files:
        with open(path, "r", encoding="utf-8") as fh:
            qmaxemu.parse_graph(fh)
    print(time.monotonic(), flush=True)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2:])

"""Mask-scoring server for the ext-oracle workload.

Speaks qfselect's external-evaluator line protocol on stdin/stdout:
"HELLO EQFS 1 <n>" is answered with "READY", each "EVAL <mask>" with
"OK <fraction of 1 bits in the mask>", and "QUIT" ends the process.  The
score is cheap and deterministic, so the workload measures the protocol
round trip rather than a model.

Usage: python3 bench/ext_server.py
"""

import sys


def main() -> int:
    hello = sys.stdin.readline().split()
    if len(hello) != 4 or hello[:3] != ["HELLO", "EQFS", "1"]:
        print(f"ERR bad handshake: {' '.join(hello)}", flush=True)
        return 1
    width = int(hello[3])
    print("READY", flush=True)
    for line in sys.stdin:
        command, _, mask = line.strip().partition(" ")
        if command == "QUIT":
            return 0
        if command != "EVAL" or len(mask) != width or mask.strip("01"):
            print(f"ERR bad request: {line.strip()}", flush=True)
            continue
        print(f"OK {mask.count('1') / width!r}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

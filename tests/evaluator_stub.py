"""Toy mask-scoring server speaking the external evaluator line protocol.

Usage: python3 evaluator_stub.py MODE [HEX ...]

It answers each request line before it reads the next, so it serves a
client that pipelines requests (ExternalEvaluator.evaluate_many) as well
as one that waits for each reply.  In "replay" mode, a request beyond the
last HEX argument ends the process with a traceback and exit code 1.

Modes:
  ones-fraction   OK <count of 1 bits / n>          (well-behaved server)
  err             ERR no such column
  range           OK 1.2                            (out of range on purpose)
  malformed       WAT
  slow            sleeps 2 s before each OK
  die             exits with code 3 after the first EVAL
  bad-handshake   answers the handshake with NOPE
  bad-utf8        OK followed by the bytes ff fe, which are not UTF-8
  close-stdout    closes its stdout at the first EVAL, then sleeps 30 s
  replay          answers the k-th EVAL with the bytes of the k-th HEX
                  argument and a newline
"""

import os
import sys
import time


def main() -> int:
    mode = sys.argv[1] if len(sys.argv) > 1 else "ones-fraction"

    hello = sys.stdin.readline().strip()
    parts = hello.split()
    if mode == "bad-handshake":
        print("NOPE", flush=True)
        return 0
    if len(parts) != 4 or parts[:3] != ["HELLO", "EQFS", "1"]:
        print(f"ERR bad handshake: {hello}", flush=True)
        return 1
    width = int(parts[3])
    print("READY", flush=True)

    for line in sys.stdin:
        line = line.strip()
        if line == "QUIT":
            return 0
        if not line.startswith("EVAL "):
            print(f"ERR unknown command: {line}", flush=True)
            continue
        mask = line[5:].strip()
        if len(mask) != width or set(mask) - {"0", "1"}:
            print(f"ERR bad mask: {mask}", flush=True)
            continue
        if mode == "err":
            print("ERR no such column", flush=True)
        elif mode == "range":
            print("OK 1.2", flush=True)
        elif mode == "malformed":
            print("WAT", flush=True)
        elif mode == "die":
            return 3
        elif mode == "bad-utf8":
            sys.stdout.buffer.write(b"OK \xff\xfe\n")
            sys.stdout.flush()
        elif mode == "replay":
            sys.stdout.buffer.write(bytes.fromhex(sys.argv.pop(2)) + b"\n")
            sys.stdout.flush()
        elif mode == "close-stdout":
            os.close(sys.stdout.fileno())
            time.sleep(30.0)
            return 0
        elif mode == "slow":
            time.sleep(2.0)
            print("OK 0.5", flush=True)
        else:
            print(f"OK {mask.count('1') / width}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

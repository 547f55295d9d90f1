"""One set-up measurement in a fresh interpreter, for the setup_s metric.

Times `import qfselect` (NumPy included) plus load_csv, stratified_split and
make_evaluator (the external handshake included), prints the seconds, then
closes the evaluator untimed.  bench/run.py starts it several times and
reports the median.

Usage: python3 bench/probe.py DATA LABEL TEST_FRACTION SPLIT_SEED KIND EXTERNAL_CMD
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main(argv: list[str]) -> int:
    data_path, label, test_fraction, split_seed, kind, command = argv
    start = time.perf_counter()
    from qfselect import EvaluatorSpec, load_csv, make_evaluator, stratified_split

    data = load_csv(data_path, label)
    split = stratified_split(data, float(test_fraction), seed=int(split_seed))
    evaluator = make_evaluator(EvaluatorSpec(kind=kind, external_cmd=command or None), split)
    elapsed = time.perf_counter() - start
    evaluator.close()
    print(repr(elapsed))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

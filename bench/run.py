"""Benchmark entry point; run from the root of a checkout:

    python3 bench/run.py --workload curves-silverman --seed 1 --seconds 25 --trace 0

It drives the melc command line in-process from the checkout's own src/
tree and prints one JSON result as its last line. See bench/README.md.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    source = ROOT / "src"
    if not (source / "melc" / "__init__.py").is_file():
        print(f"bench: no melc sources under {source}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(source))
    import melc

    if Path(melc.__file__).resolve().parent != (source / "melc").resolve():
        print(f"bench: imported melc from {melc.__file__}, not {source}", file=sys.stderr)
        return 2
    from harness import run

    return run(sys.argv[1:], ROOT)


if __name__ == "__main__":
    sys.exit(main())

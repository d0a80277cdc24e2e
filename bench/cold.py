"""One cold CLI invocation: a fresh interpreter imports the package and runs a command.

    python3 bench/cold.py op-curve --config link.cfg --x 1 --p1-dbw 0 80 --points 2

The benchmark times this whole process as `setup_s`, the start-up cost that
every command-line use of the package pays before its job time.
"""

import sys
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from twoway_impair.cli import main

    sys.exit(main(sys.argv[1:]))

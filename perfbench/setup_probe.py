"""Print the set-up time of envlld in this fresh interpreter, in nominal
seconds (see reference.py)."""

import run

if __name__ == "__main__":
    run.bootstrap()
    print(repr(run.nominal_setup()))

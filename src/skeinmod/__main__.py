"""`python -m skeinmod`; run() is also the installed `skeinmod` script."""

import gc
import sys

from .cli import main


def run() -> int:
    # the imports are done: the permanent generation takes what they made, so
    # no collection during the run or at exit walks it. cli.main, which tests
    # and library callers run in-process, leaves their collector as it is.
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(run())

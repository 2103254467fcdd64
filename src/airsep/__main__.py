"""``python -m airsep``: the command-line interface of :mod:`airsep.harness`."""
from .harness import main

main()

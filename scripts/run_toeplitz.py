#!/usr/bin/env python3
"""Measure the Toeplitz-identity residual over an h-sweep, with the flat
weight and with the escape-function deformation, and report the log-log
slopes, as `gevspec toeplitz --config configs/gevrey2_toeplitz.cfg`.

The identity predicts O(h). The script exits 0 when both slopes reach
experiments.SLOPE_MIN (criterion 05), and 3 when either falls short or the
sweep fails.
"""

import sys
from pathlib import Path

from gevspec import cli

CONFIG = (Path(__file__).resolve().parent.parent
          / "configs" / "gevrey2_toeplitz.cfg")


def main() -> int:
    return cli.main(["toeplitz", "--config", str(CONFIG)])


if __name__ == "__main__":
    sys.exit(main())

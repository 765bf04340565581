#!/usr/bin/env python3
"""Run the spectrum-free-radius sweeps for both transport models and print
the scaling verdicts.

Each config runs as `gevspec scaling --config <cfg>` and writes
results/<model>/sweep.csv and summary.json. Returns the worst exit code.
"""

import sys
from pathlib import Path

from gevspec import cli

CONFIGS = [
    Path(__file__).resolve().parent.parent / "configs" / "gevrey2_scaling.cfg",
    Path(__file__).resolve().parent.parent / "configs" / "analytic_scaling.cfg",
]


def main() -> int:
    codes = [cli.main(["scaling", "--config", str(cfg_path)])
             for cfg_path in CONFIGS]
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())

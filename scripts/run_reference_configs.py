#!/usr/bin/env python3
"""Run every shipped reference config; artifacts land in ./out/.

Each config's status line is followed by one ``sha256 <hex> <path>`` line per
file it wrote, so two checkouts' outputs compare byte for byte with a diff of
those lines.

Usage: python scripts/run_reference_configs.py [config-dir]
"""

import hashlib
import sys
import time
from pathlib import Path

from scqsim.cli import REPLAY_CSV_SUFFIXES
from scqsim.cli import main as cli_main
from scqsim.config import parse_config


def written_files(cfg: Path) -> list:
    """The files a config writes: its ``out``, and for drive-run the replay CSVs next to it."""
    run = parse_config(cfg)
    if run.out is None:
        return []
    out = Path(run.out)
    if run.command != "drive-run":
        return [out]
    stem = out.with_suffix("").as_posix()
    return [out, *(Path(stem + suffix) for suffix in REPLAY_CSV_SUFFIXES.values())]


def run_all(config_dir: Path) -> int:
    configs = sorted(config_dir.glob("*.cfg"))
    if not configs:
        print(f"no .cfg files under {config_dir}", file=sys.stderr)
        return 1
    failures = 0
    for cfg in configs:
        start = time.perf_counter()
        rc = cli_main(["--config", str(cfg)])
        elapsed = time.perf_counter() - start
        status = "ok" if rc == 0 else f"FAILED (exit {rc})"
        print(f"{cfg.name:32s} {status:>12s}  {elapsed:6.2f}s")
        failures += rc != 0
        if rc == 0:
            for path in written_files(cfg):
                print(f"sha256 {hashlib.sha256(path.read_bytes()).hexdigest()} {path}")
    return 1 if failures else 0


if __name__ == "__main__":
    base = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).parent.parent / "configs"
    sys.exit(run_all(base))

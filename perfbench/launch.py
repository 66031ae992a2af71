"""Run the percolattice CLI once, untraced, and stamp the end of its set-up.

Usage: python3 launch.py STAMP_FILE (full|setup) CLI_ARGS...

Set-up ends when the CLI dispatches to its subcommand: arguments and
config are parsed, and the next call goes into a numeric module. The
launcher writes that `time.monotonic()` value (system-wide on Linux, so
comparable with the parent's clock) to STAMP_FILE, together with the
values when `main` was entered and when it returned. In `setup` mode it
exits at the end of set-up, so set-up can be sampled without the work.
Nothing else is patched: the subcommand runs as it does for a user.
"""

import json
import os
import sys
import time


def main() -> int:
    stamp_file, mode, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    from percolattice import cli

    stamps = {}

    def stamped(command):
        def run(*args, **kwargs):
            stamps["setup_end"] = time.monotonic()
            if mode == "setup":
                _write(stamp_file, stamps)
                os._exit(0)
            return command(*args, **kwargs)
        return run

    for name in ("cmd_solve", "cmd_simulate", "cmd_compare", "cmd_oracle", "cmd_conditions"):
        setattr(cli, name, stamped(getattr(cli, name)))
    stamps["main_start"] = time.monotonic()
    try:
        return cli.main(argv)
    finally:
        stamps["main_end"] = time.monotonic()
        _write(stamp_file, stamps)


def _write(path: str, stamps: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(stamps, fh)


if __name__ == "__main__":
    sys.exit(main())

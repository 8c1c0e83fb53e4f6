"""Record the sha256 of the CLI stdout for every deterministic cli_mix command.

    python3 bench/record_digests.py

Writes ``bench/cli_digests.json``. The cli_mix workload checks each
command's stdout against it, so run this only at a commit whose CLI
output is the reference, never to make a failing check pass.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "bench"))
    from workloads import (CLI_DIR, CLI_VARIANTS, DIGESTS_PATH, cli_commands, digest,
                           run_cli, write_cli_pool)
    from qsconc import closed_forms

    write_cli_pool()
    digests = {}
    try:
        for v in range(CLI_VARIANTS):
            for argv in cli_commands(v):
                closed_forms.isotropic_envelope.cache_clear()
                closed_forms.werner_envelope.cache_clear()
                rc, text = run_cli(argv)
                if rc != 0:
                    print(f"exit {rc}: {' '.join(argv)}", file=sys.stderr)
                    return 1
                digests[" ".join(argv)] = digest(text)
    finally:
        for path in CLI_DIR.glob("*.json"):
            path.unlink()
    DIGESTS_PATH.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"{len(digests)} digests written to {DIGESTS_PATH.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

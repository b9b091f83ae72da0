"""Regenerate tests/golden_digests.json from the checked-out library.

    PYTHONPATH=src python tests/make_golden.py

Only run this when results are meant to change; a refactor must reproduce
the committed file instead.
"""

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from golden_cases import GOLDEN_PATH, all_digests, platform_fingerprint  # noqa: E402


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        digests = all_digests(Path(tmp))
    blob = {"platform": platform_fingerprint(), "digests": digests}
    GOLDEN_PATH.write_text(json.dumps(blob, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests to {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

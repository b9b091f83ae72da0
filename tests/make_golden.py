"""Regenerate tests/golden_digests.json from the checked-out library.

    PYTHONPATH=src python tests/make_golden.py          # rewrite the file
    PYTHONPATH=src python tests/make_golden.py --diff   # list changes only

Only run this when results are meant to change; a refactor must reproduce
the committed file instead. ``--diff`` writes nothing: it lists every case
whose digest differs from the committed file, and every case added or
removed, then exits 1 if there is any.
"""

import argparse
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from golden_cases import GOLDEN_PATH, all_digests, platform_fingerprint  # noqa: E402


def diff_lines(old: dict, new: dict) -> list:
    """One line per case whose digest moved, was added or was removed."""
    lines = []
    for case in sorted(set(old) | set(new)):
        if case not in new:
            lines.append(f"removed {case}")
        elif case not in old:
            lines.append(f"added   {case}")
        elif old[case] != new[case]:
            fields = sorted(k for k in set(old[case]) | set(new[case]) if old[case].get(k) != new[case].get(k))
            lines.append(f"moved   {case} ({', '.join(fields)})")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--diff", action="store_true",
                    help="list the cases that differ from the committed file; write nothing")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        digests = all_digests(Path(tmp))
    if args.diff:
        committed = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
        if committed["platform"] != platform_fingerprint():
            print(f"note: the committed digests were made on {committed['platform']!r}")
        lines = diff_lines(committed["digests"], digests)
        print("\n".join(lines) if lines else "no case differs")
        return 1 if lines else 0
    blob = {"platform": platform_fingerprint(), "digests": digests}
    GOLDEN_PATH.write_text(json.dumps(blob, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests to {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

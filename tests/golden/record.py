"""Write the golden fixture files next to this script.

    PYTHONPATH=src python3 tests/golden/record.py

Run it only at a commit whose outputs are known good: ``tests/test_golden.py``
fails on every entry that differs from the recording.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> None:
    sys.path.insert(0, str(HERE.parent))
    import test_golden

    for name in sorted(test_golden.FIXTURES):
        with open(HERE / f"{name}.json", "w", encoding="utf-8") as out:
            entries = [json.dumps(entry) for entry in test_golden.record(name)]
            out.write("[\n" + ",\n".join(entries) + "\n]\n")


if __name__ == "__main__":
    main()

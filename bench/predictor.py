"""Predictor child for ``maire --predictor-cmd``: the bench's fixed model.

Speaks the JSON line protocol: each stdin line is a JSON array of encoded
points, each answered by one stdout line holding a JSON array of integer
labels. Exits when stdin closes.

    python3 bench/predictor.py < requests.jsonl
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

from tables import N_COLUMNS, label_encoded  # noqa: E402


def main() -> None:
    for line in sys.stdin:
        points = np.asarray(json.loads(line), dtype=np.float64).reshape(-1, N_COLUMNS)
        sys.stdout.write(json.dumps(label_encoded(points).tolist()) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()

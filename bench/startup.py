"""One program start-up, run in a fresh interpreter: import numpy, import
hassewitt, then the first dyadic Hilbert symbol, which builds the lazy 2-adic
table from the residue oracle. Prints one JSON line with the time of each step
as soon as the program can serve.

Usage: python startup.py <source directory holding hassewitt>
"""

import json
import sys
from time import perf_counter

t0 = perf_counter()
import numpy  # noqa: E402,F401

t1 = perf_counter()
sys.path.insert(0, sys.argv[1])
from hassewitt import hilbert_symbol  # noqa: E402
from hassewitt.rationals import Place  # noqa: E402

t2 = perf_counter()
hilbert_symbol(3, 5, Place.finite(2))
t3 = perf_counter()
print(
    json.dumps(
        {
            "import_numpy_ms": (t1 - t0) * 1e3,
            "import_hassewitt_ms": (t2 - t1) * 1e3,
            "first_dyadic_symbol_ms": (t3 - t2) * 1e3,
        }
    ),
    flush=True,
)

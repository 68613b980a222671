"""Integer backend detection.

BACKEND is "gmpy2" when gmpy2 is importable and "python" otherwise.
Benchmarks record it with their results. The exact Weingarten inverse
runs on word-size modular arithmetic and plain Python ints, so no kernel
depends on it.
"""

try:
    import gmpy2  # noqa: F401

    BACKEND = "gmpy2"
except ImportError:
    BACKEND = "python"

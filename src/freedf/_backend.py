"""Integer backend detection.

BACKEND is "gmpy2" when gmpy2 is importable and "python" otherwise.
Benchmarks record it with their results. The exact Weingarten inverse
runs on plain Python ints (rows packed into big integers, see
weingarten), so no kernel depends on it.
"""

try:
    import gmpy2  # noqa: F401

    BACKEND = "gmpy2"
except ImportError:
    BACKEND = "python"

"""Stand-in that hides NumPy: put this directory first on ``PYTHONPATH``.

The program then finds no batch kernel and runs every cell on the scalar
route, which is what the benchmark's reference outputs are computed on.
"""

raise ImportError("NumPy is hidden so the scalar reference route runs")

"""Kernel backend name.

The monomial kernels live in ``_kernels_py``, the one implementation.
``KERNEL_BACKEND`` names it for environment records and reports.
"""

KERNEL_BACKEND = "python"

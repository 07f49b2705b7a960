"""Build script: compiles the optional C kernel.

The package is fully functional without it: revsel._engine otherwise builds
the kernel into its __pycache__ on first import, or falls back to the
pure-Python implementation.
"""

from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension("revsel._engine._kernel", ["src/revsel/_engine/_kernel.c"], optional=True)
    ]
)

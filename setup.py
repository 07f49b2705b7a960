"""Build script: compiles the optional C kernel.

The package is fully functional without it: revsel._engine first builds the
kernel from the C source beside it into its __pycache__ on first import, and
loads this installed build only when that fails; without either it runs in
pure Python.
"""

from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension("revsel._engine._kernel", ["src/revsel/_engine/_kernel.c"], optional=True)
    ]
)

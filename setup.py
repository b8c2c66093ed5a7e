"""Setuptools metadata for the ``repro`` package.

A classic ``setup.py`` keeps ``pip install -e . --no-build-isolation``
working without the ``wheel`` package: PEP 517 editable installs build
a wheel, and pip falls back to the legacy ``setup.py develop`` path.
This file holds all the package metadata; the version is read from
``src/repro/__init__.py``.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

VERSION = re.search(
    r'^__version__ = "([^"]+)"',
    (Path(__file__).parent / "src" / "repro" / "__init__.py").read_text(),
    re.MULTILINE).group(1)

setup(
    name="repro",
    version=VERSION,
    description="Reproduction of Fault Tolerant Gradient Clock "
                "Synchronization (PODC 2019)",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy"],
)

"""Setuptools entry point.

Kept alongside ``pyproject.toml`` so that editable installs work in offline
environments whose setuptools predates full PEP 660 support
(``pip install -e . --no-build-isolation``).
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    description=(
        "Consensus answers for queries over probabilistic databases "
        "(Li & Deshpande, PODS 2009) - full reproduction"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.9",
)

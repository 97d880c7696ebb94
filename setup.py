"""Legacy shim so `pip install -e .` works on environments without wheel.

Package data matters here: ``repro/py.typed`` marks the package as typed
(PEP 561) and ``repro/devtools/hotpaths.toml`` + ``mypy_baseline.txt``
are read at runtime by the lint/typecheck CLIs, so all three must ship
in wheels and sdists alike.
"""
from setuptools import find_packages, setup

setup(
    name="repro-hdindex",
    packages=find_packages(where="src"),
    package_dir={"": "src"},
    package_data={
        "repro": ["py.typed"],
        "repro.devtools": ["hotpaths.toml", "mypy_baseline.txt"],
    },
    python_requires=">=3.10",
    install_requires=["numpy"],
    # scipy.stats is imported by the LSH and SRS baselines when they
    # run, never by ``import repro``.
    extras_require={"baselines": ["scipy"]},
)

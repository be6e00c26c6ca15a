"""Package metadata for the FSD reproduction.

There is no ``pyproject.toml`` in this repo; this file is the single source
of packaging truth so ``pip install -e .`` works on offline machines where
PEP 660 wheel building is unavailable.  The package list is explicit (no
``find_packages``) so that forgetting to register a new subpackage -- as
happened when ``repro.analysis`` was added -- is a visible one-line diff
rather than a silent wheel omission.
"""

from setuptools import setup

PACKAGES = [
    "repro",
    "repro.analysis",
    "repro.baselines",
    "repro.chaos",
    "repro.cloud",
    "repro.comm",
    "repro.concurrency",
    "repro.core",
    "repro.costmodel",
    "repro.experiments",
    "repro.model",
    "repro.partitioning",
    "repro.planner",
    "repro.scenarios",
    "repro.serving",
    "repro.sparse",
    "repro.telemetry",
    "repro.workloads",
]

setup(
    name="fsd-repro",
    version="0.10.0",
    description=(
        "Reproduction of cloud-based distributed matrix multiplication "
        "serving (FSD) with deterministic simulation, chaos injection, "
        "SLO planning, virtual-timeline tracing, concurrent-execution "
        "contention modelling, and the detlint determinism linter"
    ),
    package_dir={"": "src"},
    packages=PACKAGES,
    python_requires=">=3.9",
    # scipy is a hard dependency: ``repro.sparse`` imports it (including the
    # private ``scipy.sparse._sparsetools`` kernels) when ``repro`` is imported.
    install_requires=["numpy", "scipy"],
    extras_require={
        "test": ["pytest", "hypothesis"],
    },
    entry_points={
        "console_scripts": [
            "detlint = repro.analysis.cli:main",
            "repro-trace = repro.telemetry.cli:main",
        ],
    },
)

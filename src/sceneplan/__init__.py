"""Scene-graph task planning and benchmark toolkit.

Builds KNN scene graphs over 3D object layouts, runs history-conditioned
progressive plan generation with dynamic graph modulation, parses and
verifies inter-step routes against scene geometry, scores plans with
standard text metrics, and validates instruction-plan datasets.

Import names from the submodules (``sceneplan.scene``, ``sceneplan.graph``
and so on); importing ``sceneplan`` alone loads none of them.  A submodule
is also a lazy attribute of the package: ``sceneplan.metrics`` imports
``sceneplan.metrics`` when it is first read.
"""

import sys

_SUBMODULES = (
    "cli", "dataset", "engine", "generators", "graph",
    "metrics", "porter", "route", "scene", "textmatch",
)


def __getattr__(name: str):
    """Import the submodule ``name`` on first access; any other name is missing."""
    if name not in _SUBMODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # ``__import__``, as an import statement runs it, so ``python -X importtime`` lists it.
    __import__(f"{__name__}.{name}")
    return sys.modules[f"{__name__}.{name}"]

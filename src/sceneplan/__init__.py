"""Scene-graph task planning and benchmark toolkit.

Builds KNN scene graphs over 3D object layouts, runs history-conditioned
progressive plan generation with dynamic graph modulation, parses and
verifies inter-step routes against scene geometry, scores plans with
standard text metrics, and validates instruction-plan datasets.

Import names from the submodules (``sceneplan.scene``, ``sceneplan.graph``
and so on); importing ``sceneplan`` alone loads none of them.
"""

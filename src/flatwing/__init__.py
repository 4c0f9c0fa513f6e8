"""Trajectory planning and flatness-based tracking for fixed-wing aircraft.

The pieces compose bottom-up: Bernstein-polynomial trajectories, an ADMM
quadratic-program solver (dense for small problems, CSR for large ones), a
minimum-jerk waypoint planner with linearized curvature bounds,
differential-flatness control maps for coordinated flight, a wind-perturbed
point-mass simulator, and a mission executive that ties them together
behind a small CLI.
"""

__version__ = "0.1.0"

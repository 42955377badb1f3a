"""conifold-lab: numerical laboratory for the Ricci-flat metric family on the
resolved conifold and its Gromov-Hausdorff collapse onto the singular cone.
Each name is imported from its module; the package exports only ``__version__``."""

__version__ = "0.1.0"

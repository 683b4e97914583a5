"""Electron-loss cross sections of fast highly charged ions on molecules.

Sudden/eikonal treatment: each target atom delivers a screened transverse
momentum kick to the projectile electrons; loss probabilities follow from
hydrogenic sudden-collision matrix elements and the binomial channel model,
integrated over the impact-parameter plane for any molecular orientation.

The package root holds only ``__version__``; import from the submodules
(``molstrip.cross_section``, ``molstrip.cli``, ...).
"""

__version__ = "0.1.0"

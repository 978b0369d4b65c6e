"""Stabilization-free weak Galerkin solver on polygonal meshes.

Subpackages are plain modules: polymesh (meshes, star points, fans),
quadbasis (quadrature and scaled bases), weakgrad (element operators),
assembly (global system), solver (condensed face solve: CG / sparse LU
with a panel one face block wide), postprocess (flux recovery, norms,
conservation, CR cross-check), problems (built-in test problems) and cli.
"""

__version__ = "0.1.0"

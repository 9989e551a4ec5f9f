"""levyfield: moving-average infinitely divisible random fields driven by
compound Poisson random measures, and nonparametric recovery of the
integrator's Levy density from gridded samples.

Submodules
----------
grids     uniform-grid functions, quadrature, Fourier transforms
model     jump laws, simple kernels, forward maps
simulate  seeded lattice simulation of the field
ecf       empirical characteristic functions and the spectral g1 estimator
invert    fixed-point series inversion (plug-in and Fourier methods)
onb       orthonormal-basis inversion on [-A, A]
smooth    smoothing kernels, bias rates, bandwidth selection
bench     experiment pipelines, Monte Carlo batches, outputs
validate  validation suites and their table, read by ``levyfield validate``
"""

from .config import ExperimentConfig, section7_config
from .grids import Grid1D, GridFunction, symmetric_grid
from .model import JumpLaw, SimpleKernel, WeightH
from .simulate import GridSample, SeedSpec

__version__ = "0.1.0"

__all__ = [
    "ExperimentConfig",
    "section7_config",
    "Grid1D",
    "GridFunction",
    "symmetric_grid",
    "JumpLaw",
    "SimpleKernel",
    "WeightH",
    "GridSample",
    "SeedSpec",
    "__version__",
]

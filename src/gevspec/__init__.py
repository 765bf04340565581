"""Numerical toolkit for spectra and pseudospectra of quantized 1-D symbols.

Modules: symbols (model catalog, each symbol declared by its additive
parts), quantize (matrix assembly and inversion), spectral (eigenvalues,
spectrum-free radii and sigma_min sweeps), geometry (escape functions from
the Im p flow, deformed ellipticity), fbi (Gaussian-phase transform,
deformed weights and the Toeplitz residual), experiments (spectral
h-sweeps and fits), cli (the gevspec command line).
"""

from .symbols import (ANALYTIC, GevreySymbol, ModelInstance, gevrey_flat,
                      make_analytic_transport, make_davies,
                      make_gevrey_transport, make_trapped_toy, model_from_tag,
                      taylor_extension)
from .quantize import (RealGrid, WeylMatrix, assemble_weyl, compose_and_extract,
                       inverse_weyl, load_weyl, required_n_points, save_weyl)
from .spectral import (FreeRadius, PseudospectrumField, SpectrumResult, ZGrid,
                       eigenvalues, pseudospectrum, resolvent_norm, sigma_min,
                       spectrum_free_radius)
from .geometry import (DeformationCheck, EscapeField, build_escape,
                       check_deformed_ellipticity)
from .fbi import (BargmannWeight, ComplexGrid, FBIOperator, gaussian_state,
                  make_fbi, toeplitz_residual, toeplitz_residuals,
                  weight_phi_t)
from .experiments import (FitResult, SweepConfig, SweepRecord, fit_power_law,
                          parse_config, resolvent_growth_check, run_sweep)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"

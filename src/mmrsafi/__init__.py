"""Reweighted l1-analysis image reconstruction with adaptive masks."""

from .core import Rng, psnr
from .fbs import SolverConfig, fbs_solve, momentum_next, tol_fbs, tol_prox
from .forward import IdentityOp, MaskedDftOp, add_noise, make_cartesian_mask
from .linops import (ConvStage, FilterBank, box_bank, dense_matrix_of,
                     difference_bank, operator_norm, project_positive_normalized,
                     project_zero_mean)
from .phantom import make_phantom
from .prox import (ConstraintSet, ProxConfig, WeightedAnalysisOperator,
                   dual_gradient, prox_weighted_l1)
from .schemes import (MmrModel, SafiModel, SchemeTrace, default_safi_model,
                      default_tv_model, eval_majorization, eval_objective,
                      mask_mmr, mask_safi, run_cvx, run_mmr, run_safi)
from .splines import (ConcavePotential, HalfLineSpline, LinearSpline,
                      SigmoidSpline, clip, project_nonincreasing)

__version__ = "0.1.0"

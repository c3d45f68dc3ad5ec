"""Integer-only non-linear kernels for transformer inference, a post-training
quantizer, and a unified-metric pipeline that assigns one approximation
function per non-linear layer."""

from .gelu import (ErfPolyCoeffs, FitResult, IBERT_ERF_COEFFS,
                   QUARTIC_ERF_COEFFS, data_aware_poly_gelu, erf_poly_eval,
                   fit_erf_poly, ibert_gelu, poly_gelu_int, shift_gelu)
from .layernorm import LN_VARIANTS, int_layernorm
from .metric import approx_error, perturbation, softplus, sqnr, unified_score
from .model import CANDIDATE_POOLS, ModelGraph, build_toy_vit, forward_float
from .pipeline import (AssignmentPlan, PipelineConfig, capture_calibration,
                       compile_plan, integer_forward, run_pipeline,
                       stage1_analyze, stage2_assign, stage3_calibrate)
from .quantize import (MinMaxObserver, QParams, QTensor, qparams_from_range,
                       quantize)
from .softmax import (base2_frac_approx_error, efficient_bit_softmax,
                      iexp_softmax, log2_softmax, shiftmax)
from .tensor import (IntegerViolation, KernelMath, OpCounter, Tensor,
                     TensorFormatError, rng_tensor, tensor_read, tensor_write)

__version__ = "0.1.0"

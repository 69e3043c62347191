"""riskclr: risk-guided contrastive pretraining for single-lead ECG encoders."""

__version__ = "0.1.0"

# The BLAS thread-count variables: the CLI pins them before numpy loads, and
# runs record them (see riskclr.train.host_conditions).
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

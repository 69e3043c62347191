"""riskclr: risk-guided contrastive pretraining for single-lead ECG encoders."""

__version__ = "0.1.0"

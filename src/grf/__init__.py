"""Invertible residual flows for small molecular graphs."""

# The tape is retired; perfbench/tracing.py still patches the placeholder
# grf.autodiff.Tensor by name until ROADMAP R1a, so this import keeps it loaded.
from . import autodiff  # noqa: F401
from .chem import (DEFAULT_VALENCES, MetricsReport, SmilesError, check_validity,
                   compute_metrics, parse_smiles, write_smiles)
from .flow import (GrfModel, ModelConfig, count_parameters, load_checkpoint,
                   save_checkpoint, qm9_table_config, toy_config)
from .graphs import (GraphSchema, GraphTensors, MolGraph, RawGraph,
                     augmented_normalized_adjacency, dequantize, pad_graph,
                     quantize_adjacency, quantize_features, unpad_graph)
from .inversion import InversionConfig, decode_latents, generate, invert_latents
from .likelihood import (FlowTrace, LogDetEstimatorConfig, full_logp, prior_logp,
                         sample_prior)
from .training import AdamState, TrainConfig, adam_step, grad_nll, train

__version__ = "0.1.0"

__all__ = [
    "AdamState", "DEFAULT_VALENCES", "FlowTrace", "GraphSchema", "GraphTensors",
    "GrfModel", "InversionConfig", "LogDetEstimatorConfig",
    "MetricsReport", "ModelConfig", "MolGraph", "RawGraph", "SmilesError",
    "TrainConfig", "adam_step", "augmented_normalized_adjacency", "check_validity",
    "compute_metrics", "count_parameters", "decode_latents",
    "dequantize", "full_logp", "generate", "grad_nll", "invert_latents",
    "load_checkpoint",
    "pad_graph", "parse_smiles", "prior_logp", "qm9_table_config",
    "quantize_adjacency", "quantize_features", "sample_prior", "save_checkpoint",
    "toy_config", "train", "unpad_graph", "write_smiles",
]

"""Deterministic simulator for pipeline-parallel optimization with
communication compression: stage math, contractive compressors, the
exchange/update engine, wire-exact byte accounting, an experiment
harness, and independent verification oracles."""

from .compressors import (CompressedPayload, CompressorSpec, compress, compress_batch,
                          contraction_bound, empirical_contraction)
from .engine import AlgoConfig, PipelineEngine, StreamingInputs
from .errors import (ConfigurationError, ContractViolation, DecodeError, DivergenceError,
                     UnsupportedConfiguration)
from .harness import ExperimentConfig, load_config, memory_calculator, run_experiment
from .optim import OptimizerConfig, adam_update, momentum_update
from .sampling import SamplerState, Schedule, lazy_sample
from .stages import ModelChain, StageSpec, chain_gradients, chain_loss, stage_forward
from .verify import CheckReport, run_suite
from .wire import TransferLedger, WireBody, decode_message, encode_message

__all__ = [
    "AlgoConfig", "CheckReport", "CompressedPayload", "CompressorSpec",
    "ConfigurationError", "ContractViolation", "DecodeError", "DivergenceError",
    "ExperimentConfig", "ModelChain", "OptimizerConfig", "PipelineEngine",
    "SamplerState", "Schedule", "StageSpec", "StreamingInputs",
    "TransferLedger", "UnsupportedConfiguration", "WireBody", "adam_update",
    "chain_gradients", "chain_loss", "compress", "compress_batch",
    "contraction_bound", "decode_message", "empirical_contraction",
    "encode_message", "lazy_sample", "load_config", "memory_calculator",
    "momentum_update", "run_experiment", "run_suite", "stage_forward",
]

"""Sparse DNN model objects and their (de)serialisation."""

from .network import ForwardProfile, LayerStats, SparseDNN
from .serialization import (
    deserialize_csr,
    load_layer_rows,
    model_key,
    serialize_csr,
    store_model,
)

__all__ = [
    "ForwardProfile",
    "LayerStats",
    "SparseDNN",
    "deserialize_csr",
    "load_layer_rows",
    "model_key",
    "serialize_csr",
    "store_model",
]

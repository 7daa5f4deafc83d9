"""Robust arbitrage detection, superhedging and optional decomposition on
finite scenario trees, with exact rational LP duality throughout.

The package namespace holds the names its readers import from it: the
benchmark's answer checks and the README's Library example. Everything
else is imported from its module."""

from .arbitrage import ArbitrageDetected
from .lp import EXACT, NumericalBreakdown, float_mode
from .market import FtapWitness, verify_decomposition, verify_witness
from .model import Claim, PathMeasure, Strategy, load_model, wealth
from .oracle import brute_price, enumerate_vertices, one_step_vertices
from .polar import compute_support, reference_measure
from .superhedge import (
    dual_price,
    price_interval,
    superhedge_dynamic,
    superhedge_semistatic,
)

__all__ = [
    "ArbitrageDetected",
    "Claim",
    "EXACT",
    "FtapWitness",
    "NumericalBreakdown",
    "PathMeasure",
    "Strategy",
    "brute_price",
    "compute_support",
    "dual_price",
    "enumerate_vertices",
    "float_mode",
    "load_model",
    "one_step_vertices",
    "price_interval",
    "reference_measure",
    "superhedge_dynamic",
    "superhedge_semistatic",
    "verify_decomposition",
    "verify_witness",
    "wealth",
]

"""Desk-scale pose-driven video motion editing.

Toy diffusion U-Net with cross-frame attention, a content-aware motion
adapter over ControlNet-style conditioning, masked key/value injection
between a reconstruction and an editing branch, and skeleton alignment --
all on a from-scratch float32 tensor library with reverse-mode autodiff.
"""

__version__ = "0.1.0"

# cli is left to load on first use (``from vidmotion import cli`` or
# ``import *``): imported here, ``python -m vidmotion.cli`` would find it
# already in sys.modules and warn before running it a second time.
from . import (adapter, attention, config, diffusion, gradcheck, injection,
               network, pipeline, skeleton, tensor)

__all__ = ["adapter", "attention", "cli", "config", "diffusion", "gradcheck",
           "injection", "network", "pipeline", "skeleton", "tensor",
           "__version__"]

"""Uniform 1D grids."""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .errors import BadDomain, GridTooSmall


@dataclass(frozen=True)
class Grid1D:
    """Uniform grid on [x_min, x_max] with nodes x_min + a*dx, a = 0..n_nodes-1:
    an integer count (else BadDomain) of at least 2 nodes (else GridTooSmall)
    on a nonempty interval of finite length (else BadDomain), the one rule
    of what a grid is."""

    x_min: float
    x_max: float
    n_nodes: int

    def __post_init__(self):
        if not isinstance(self.n_nodes, Integral):
            raise BadDomain(f"node count {self.n_nodes!r} is not an integer")
        if self.n_nodes < 2:
            raise GridTooSmall(f"need at least 2 nodes, got {self.n_nodes}")
        if not 0.0 < float(self.x_max) - float(self.x_min) < np.inf:
            raise BadDomain(
                f"interval [{self.x_min}, {self.x_max}] is empty or not finite")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.n_nodes - 1)

    @property
    def length(self) -> float:
        return self.x_max - self.x_min

    def nodes(self) -> np.ndarray:
        return self.x_min + self.dx * np.arange(self.n_nodes)

"""Uniform time grids and time-indexed matrix paths."""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [t_start, t_end] with n_steps intervals.

    Node k sits at t_start + k * dt with dt = (t_end - t_start) / n_steps.
    """

    t_start: float
    t_end: float
    n_steps: int

    def __post_init__(self):
        if not (np.isfinite(self.t_start) and np.isfinite(self.t_end)):
            raise ValueError("grid endpoints must be finite")
        if self.t_end <= self.t_start:
            raise ValueError("t_end must exceed t_start")
        if not float(self.n_steps).is_integer():
            raise ValueError(f"n_steps must be an integer, got {self.n_steps}")
        if int(self.n_steps) < 1:
            raise ValueError("n_steps must be >= 1")
        object.__setattr__(self, "n_steps", int(self.n_steps))

    @property
    def dt(self):
        return (self.t_end - self.t_start) / self.n_steps

    @property
    def nodes(self):
        return self.t_start + self.dt * np.arange(self.n_steps + 1)

    def node(self, k):
        if not 0 <= k <= self.n_steps:
            raise IndexError(f"node index {k} outside [0, {self.n_steps}]")
        return self.t_start + k * self.dt

    def find_node(self, t):
        """Index of the grid node at time t, or None if t is off-grid.

        t matches node k when they differ by at most 1e-9 * max(1, |t|).
        """
        k = int(round((t - self.t_start) / self.dt))
        if 0 <= k <= self.n_steps and abs(self.node(k) - t) <= 1e-9 * max(1.0, abs(t)):
            return k
        return None

    def node_index(self, t):
        """Index of the grid node at time t; error if t is off-grid."""
        k = self.find_node(t)
        if k is None:
            raise ValueError(f"t={t} is not a node of {self}")
        return k


class MatrixPath:
    """A d x d matrix per node of a time grid."""

    def __init__(self, grid, values):
        values = np.asarray(values, dtype=float)
        if values.ndim != 3 or values.shape[1] != values.shape[2]:
            raise ValueError("values must have shape (n_steps+1, d, d)")
        if values.shape[0] != grid.n_steps + 1:
            raise ValueError(
                f"expected {grid.n_steps + 1} matrices, got {values.shape[0]}"
            )
        if not np.isfinite(values).all():
            k = int(np.argwhere(~np.isfinite(values).all(axis=(1, 2)))[0, 0])
            raise ValueError(f"non-finite matrix at node {k} (t={grid.node(k)})")
        self.grid = grid
        self.values = values

    @property
    def dim(self):
        return self.values.shape[1]

    def at(self, t):
        """Matrix at the grid node closest to t (t must be on-grid)."""
        return self.values[self.grid.node_index(t)]

    def __len__(self):
        return self.values.shape[0]

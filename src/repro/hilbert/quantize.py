"""Domain quantisation: real-valued descriptors -> Hilbert grid coordinates.

The order ω of the Hilbert curve fixes a grid of ``2**ω`` cells per dimension
(Sec. 3.4: "if the order is ω, each dimension is divided into 2^ω equal grid
partitions").  This module maps each dataset's value domain (Table 4) onto
that grid.  Values outside the declared domain are clipped — queries may lie
slightly outside the data's bounding box.
"""

from __future__ import annotations

import numpy as np


def lane_dtype(order: int) -> np.dtype:
    """Narrowest unsigned dtype holding one ``order``-bit coordinate: the
    lane of the Hilbert curve's packed batch transform."""
    return np.dtype(f"<u{next((b for b in (1, 2, 4) if order <= 8 * b), 8)}")


class GridQuantizer:
    """Uniform scalar quantiser onto ``2**order`` cells per dimension.

    Parameters
    ----------
    low, high:
        Value domain of the descriptors (e.g. [0, 255] for SIFT).
    order:
        Hilbert curve order ω.
    """

    def __init__(self, low: float, high: float, order: int) -> None:
        if not high > low:
            raise ValueError(f"domain must satisfy high > low, got [{low}, {high}]")
        if order < 1:
            raise ValueError(f"order must be >= 1, got {order}")
        self.low = float(low)
        self.high = float(high)
        self.order = order
        self.cells = 1 << order
        self.dtype = lane_dtype(order)
        span = self.high - self.low
        self._scale = self.cells / span
        while int(span * self._scale) < self.cells - 1:  # high -> top cell
            self._scale = float(np.nextafter(self._scale, np.inf))

    def quantize(self, values: np.ndarray) -> np.ndarray:
        """Map values to grid coordinates in ``[0, 2**order - 1]`` as
        :attr:`dtype` (uint8 at ω <= 8), clipped to the domain in float
        first: any finite value lands in a cell, none overflows a cast."""
        cells = np.array(values, dtype=np.float64)
        np.clip(cells, self.low, self.high, out=cells)
        cells -= self.low
        cells *= self._scale
        np.floor(cells, out=cells)
        np.minimum(cells, self.cells - 1, out=cells)
        coords = cells.astype(self.dtype)
        if self.cells > 1 << 53:
            # cells - 1 is no float64 here; the float minimum was cells.
            np.minimum(coords, self.cells - 1, out=coords)
        return coords

    def dequantize(self, cells: np.ndarray) -> np.ndarray:
        """Map grid coordinates back to cell-centre values."""
        cells = np.asarray(cells, dtype=np.float64)
        return self.low + (cells + 0.5) / self._scale

    @classmethod
    def from_data(cls, data: np.ndarray, order: int,
                  margin: float = 0.0) -> "GridQuantizer":
        """Fit a quantiser to observed data with an optional relative margin."""
        low = float(np.min(data))
        high = float(np.max(data))
        if high == low:
            high = low + 1.0
        span = high - low
        return cls(low - margin * span, high + margin * span, order)

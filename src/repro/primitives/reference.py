"""Reference (textbook) convolution and the sum-of-single-channels baseline.

:func:`reference_convolution` is the numerical oracle every other primitive
is tested against.  :class:`Sum2DPrimitive` is the paper's common baseline —
"all convolutions in the network are performed using the textbook
sum-of-single-channels algorithm, with single-threaded execution" (section
5.2) — implemented with the loop ordering ``M x C x H x W x K x K`` described
in section 4.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.graph.scenario import ConvScenario
from repro.layouts.layout import CHW
from repro.primitives.base import (
    ConvPrimitive,
    PrimitiveFamily,
    PrimitiveTraits,
    depthwise_shifted_accumulation,
)


def reference_convolution(
    x_chw: np.ndarray, kernel: np.ndarray, scenario: ConvScenario
) -> np.ndarray:
    """Textbook multichannel 2D cross-correlation (DNN convolution).

    Parameters
    ----------
    x_chw:
        Input tensor of shape ``(C, H, W)`` in canonical CHW layout.
    kernel:
        Kernel tensor of shape ``(M, C/groups, K, K)``.
    scenario:
        The convolutional scenario (supplies stride, padding and grouping).

    Returns
    -------
    numpy.ndarray
        Output tensor of shape ``(M, out_H, out_W)``.
    """
    x_chw = np.asarray(x_chw, dtype=np.float64)
    kernel = np.asarray(kernel, dtype=np.float64)
    if x_chw.shape != scenario.input_shape:
        raise ValueError(f"input shape {x_chw.shape} != scenario {scenario.input_shape}")
    if kernel.shape != scenario.kernel_shape:
        raise ValueError(f"kernel shape {kernel.shape} != scenario {scenario.kernel_shape}")

    pad = scenario.padding
    if pad:
        x_chw = np.pad(x_chw, ((0, 0), (pad, pad), (pad, pad)), mode="constant")

    out = np.zeros(scenario.output_shape, dtype=np.float64)
    group_c = scenario.c // scenario.groups
    group_m = scenario.m // scenario.groups
    stride = scenario.stride
    k = scenario.k
    out_h, out_w = scenario.out_h, scenario.out_w

    for g in range(scenario.groups):
        x_group = x_chw[g * group_c : (g + 1) * group_c]
        for m_local in range(group_m):
            m = g * group_m + m_local
            for oh in range(out_h):
                for ow in range(out_w):
                    window = x_group[
                        :, oh * stride : oh * stride + k, ow * stride : ow * stride + k
                    ]
                    out[m, oh, ow] = np.sum(window * kernel[m])
    return out


class Sum2DPrimitive(ConvPrimitive):
    """The sum-of-single-channels direct algorithm (the SUM2D baseline).

    Loop ordering ``M x C x H x W x K x K``: for each output map, the 2D
    convolution of each input channel with the corresponding kernel slice is
    accumulated.  Operates on the canonical CHW layout and has no workspace.
    """

    def __init__(self, name: str = "sum2d") -> None:
        super().__init__(
            name=name,
            family=PrimitiveFamily.SUM2D,
            input_layout=CHW,
            output_layout=CHW,
            vector_factor=1,
        )

    def traits(self) -> PrimitiveTraits:
        return PrimitiveTraits(
            gemm_fraction=0.0,
            locality=0.45,
            parallel_efficiency=0.70,
            per_call_overhead_ops=2_000.0,
        )

    def _compute_grouped(
        self, x_chw: np.ndarray, kernel: np.ndarray, scenario: ConvScenario
    ) -> Optional[np.ndarray]:
        """Depthwise sum2d: each output map is one single-channel 2D convolution."""
        return depthwise_shifted_accumulation(x_chw, kernel, scenario)

    def _compute(self, x_chw: np.ndarray, kernel: np.ndarray, scenario: ConvScenario) -> np.ndarray:
        out = np.zeros(scenario.output_shape, dtype=np.float64)
        stride, k = scenario.stride, scenario.k
        for m in range(scenario.m):
            for c in range(scenario.c):
                plane = x_chw[c]
                weights = kernel[m, c]
                accum = np.zeros((scenario.out_h, scenario.out_w), dtype=np.float64)
                for kh in range(k):
                    for kw in range(k):
                        patch = plane[
                            kh : kh + (scenario.out_h - 1) * stride + 1 : stride,
                            kw : kw + (scenario.out_w - 1) * stride + 1 : stride,
                        ]
                        accum += weights[kh, kw] * patch
                out[m] += accum
        return out

"""The direct-loop family of convolution primitives.

Section 4 of the paper: "the direct-loop family of convolution algorithms
perform multichannel multi-kernel convolution using a simple six-deep loop
nest.  There are many variants of this loop nest with different reorderings,
tilings, and schedules to improve execution time, vectorization, and spatial
and temporal locality of data access."

All variants perform exactly the textbook operation count; they differ in
loop order, spatial tiling and vectorization factor, which changes locality
and achievable fraction of machine peak (captured by :meth:`traits`) but not
the mathematics.  Strided convolution is the family's strength (Table 1).
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.graph.scenario import ConvScenario
from repro.layouts.layout import Layout, CHW
from repro.primitives.base import (
    ConvPrimitive,
    PrimitiveFamily,
    PrimitiveTraits,
    depthwise_shifted_accumulation,
)

#: Locality scores of the supported loop orders.  Orders that keep the spatial
#: loops innermost stream through the image with unit stride; orders that put
#: the channel loops innermost jump across feature maps on every iteration.
LOOP_ORDER_LOCALITY: Dict[str, float] = {
    "MCHW": 0.50,   # output-map outer, channel, then spatial: decent reuse of kernels
    "CMHW": 0.42,   # channel outer: poor output reuse, repeated output traffic
    "MHWC": 0.60,   # spatial mid, channel inner: good for channel-minor layouts
    "HWMC": 0.58,   # spatial outermost: streaming, good with blocked channels
    "MHWC_T8": 0.68,  # 8x8 spatial tiling of MHWC
    "HWMC_T8": 0.66,  # 8x8 spatial tiling of HWMC
}


class DirectLoopPrimitive(ConvPrimitive):
    """One member of the direct-loop family.

    Parameters
    ----------
    loop_order:
        One of the keys of :data:`LOOP_ORDER_LOCALITY`; determines the memory
        locality score used by the analytical cost model.
    input_layout / output_layout:
        The layouts this variant is written for; blocked layouts model the
        vector-friendly register tiling of the hand-optimized variants.
    vector_factor:
        FP32 SIMD width the inner loop is vectorized for.
    """

    def __init__(
        self,
        name: str,
        loop_order: str = "MCHW",
        input_layout: Layout = CHW,
        output_layout: Layout = CHW,
        vector_factor: int = 1,
    ) -> None:
        if loop_order not in LOOP_ORDER_LOCALITY:
            raise ValueError(
                f"unknown loop order {loop_order!r}; supported: {sorted(LOOP_ORDER_LOCALITY)}"
            )
        super().__init__(
            name=name,
            family=PrimitiveFamily.DIRECT,
            input_layout=input_layout,
            output_layout=output_layout,
            vector_factor=vector_factor,
        )
        self.loop_order = loop_order

    def traits(self) -> PrimitiveTraits:
        locality = LOOP_ORDER_LOCALITY[self.loop_order]
        return PrimitiveTraits(
            gemm_fraction=0.0,
            locality=locality,
            parallel_efficiency=0.82,
            per_call_overhead_ops=1_000.0,
        )

    def supports(self, scenario: ConvScenario, platform=None) -> bool:
        # The direct loop nest handles every scenario, including strided and
        # depthwise ones (the channel loop simply collapses per group), at
        # every precision (the MAC loop is the textbook int8/fp16 kernel).
        return self.supports_dtype(scenario.dtype) and self.available_on(platform)

    def _compute_grouped(
        self, x_chw: np.ndarray, kernel: np.ndarray, scenario: ConvScenario
    ) -> Optional[np.ndarray]:
        """Depthwise form of the loop nest: no channel reduction, vectorized per map."""
        return depthwise_shifted_accumulation(x_chw, kernel, scenario)

    def _compute(self, x_chw: np.ndarray, kernel: np.ndarray, scenario: ConvScenario) -> np.ndarray:
        """Direct convolution via shifted-slice accumulation.

        The arithmetic is identical for every loop order; variants differ
        only in traversal order, which numpy's vectorized execution abstracts
        away.  The kh/kw loops remain explicit, matching the structure of the
        hand-written loop nests.
        """
        stride, k = scenario.stride, scenario.k
        out_h, out_w = scenario.out_h, scenario.out_w
        x64 = x_chw.astype(np.float64, copy=False)
        kernel64 = kernel.astype(np.float64, copy=False)
        out = np.zeros(scenario.output_shape, dtype=np.float64)
        for kh in range(k):
            for kw in range(k):
                # (C, outH, outW) window of the input for this kernel offset.
                window = x64[
                    :,
                    kh : kh + (out_h - 1) * stride + 1 : stride,
                    kw : kw + (out_w - 1) * stride + 1 : stride,
                ]
                # (M, C) x (C, outH*outW) contraction for this offset.
                out += np.tensordot(kernel64[:, :, kh, kw], window, axes=([1], [0]))
        return out

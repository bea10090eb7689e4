"""The kn2 family: low-memory GEMM-based convolution (kn2row / kn2col).

Section 4: "the kn2 family of low-memory GEMM-based convolution algorithms
are presented by Vasudevan et al.  This family of approaches does not
construct a Toeplitz matrix, and instead computes convolution as the sum of
several matrix multiplications.  We use variants of the kn2 family that
compute the sum of GEMMs as an accumulation and achieve good execution times
with low additional memory."

For every kernel offset ``(kh, kw)`` the ``(M, C)`` slice of the kernel is
multiplied with the ``(C, H*W)`` image matrix and the result is shift-added
into the output.  There are ``K^2`` small GEMMs instead of one big one, and
only an ``(M, H*W)`` scratch buffer (or none, for the accumulating variants)
is needed.  The approach requires unit stride (Table 1: "Strided: --",
"Bad cases: few channels").
"""

from __future__ import annotations

import numpy as np

from repro.graph.scenario import ConvScenario
from repro.layouts.layout import CHW, HWC, Layout
from repro.primitives.base import ConvPrimitive, PrimitiveFamily, PrimitiveTraits


class _Kn2Base(ConvPrimitive):
    """Shared implementation of the kn2row / kn2col variants.

    Parameters
    ----------
    accumulating:
        If ``True`` the per-offset GEMM results are accumulated directly into
        the output (no scratch buffer); if ``False`` a full ``(M, H*W)``
        scratch buffer per offset is used (slightly better GEMM shape, more
        memory).
    """

    def __init__(self, *args, accumulating: bool = True, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.accumulating = accumulating

    def supports(self, scenario: ConvScenario, platform=None) -> bool:
        # The shift-add formulation is only efficient (and only implemented)
        # for unit-stride convolution.  Depthwise scenarios are declined: the
        # per-offset (M, C) x (C, H*W) GEMM degenerates to a scalar-vector
        # product per group (the family's "few channels" bad case taken to its
        # limit), which the implementation does not provide a kernel for.
        return (
            scenario.stride == 1
            and not scenario.is_depthwise
            and self.supports_dtype(scenario.dtype)
            and self.available_on(platform)
        )

    def traits(self) -> PrimitiveTraits:
        return PrimitiveTraits(
            gemm_fraction=0.78,
            locality=0.72,
            parallel_efficiency=0.84,
            per_call_overhead_ops=4_000.0 * (1.0 if self.accumulating else 1.5),
        )

    def workspace_elements(self, scenario: ConvScenario) -> float:
        if self.accumulating:
            # Only one (M, H*W) partial-result buffer reused across offsets.
            return float(scenario.m * scenario.h * scenario.w)
        return float(scenario.k * scenario.k * scenario.m * scenario.h * scenario.w) / scenario.k

    def _compute(self, x_chw: np.ndarray, kernel: np.ndarray, scenario: ConvScenario) -> np.ndarray:
        if scenario.stride != 1:
            raise ValueError("kn2 primitives require unit stride")
        c, h, w = scenario.c, scenario.h, scenario.w
        k, m = scenario.k, scenario.m
        out_h, out_w = scenario.out_h, scenario.out_w
        x64 = x_chw.astype(np.float64, copy=False)
        image_matrix = x64.reshape(c, h * w)
        kernel64 = kernel.astype(np.float64, copy=False)
        out = np.zeros((m, out_h, out_w), dtype=np.float64)
        for kh in range(k):
            for kw in range(k):
                # (M, C) x (C, H*W) GEMM for this kernel offset.
                partial = kernel64[:, :, kh, kw] @ image_matrix
                partial = partial.reshape(m, h, w)
                # Shift-add: output pixel (oh, ow) needs input pixel (oh+kh, ow+kw).
                out += partial[:, kh : kh + out_h, kw : kw + out_w]
        return out


class Kn2RowPrimitive(_Kn2Base):
    """kn2row: channel-minor (HWC) data, row-major shift-add accumulation."""

    def __init__(
        self,
        name: str,
        accumulating: bool = True,
        vector_factor: int = 1,
        input_layout: Layout = HWC,
        output_layout: Layout = HWC,
    ) -> None:
        super().__init__(
            name,
            PrimitiveFamily.KN2,
            input_layout=input_layout,
            output_layout=output_layout,
            vector_factor=vector_factor,
            accumulating=accumulating,
        )


class Kn2ColPrimitive(_Kn2Base):
    """kn2col: channel-major (CHW) data, column-major shift-add accumulation."""

    def __init__(
        self,
        name: str,
        accumulating: bool = True,
        vector_factor: int = 1,
        input_layout: Layout = CHW,
        output_layout: Layout = CHW,
    ) -> None:
        super().__init__(
            name,
            PrimitiveFamily.KN2,
            input_layout=input_layout,
            output_layout=output_layout,
            vector_factor=vector_factor,
            accumulating=accumulating,
        )

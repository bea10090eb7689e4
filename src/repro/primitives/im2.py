"""The im2 family: im2col / im2row GEMM-based convolution.

Section 4: "the im2 family of convolution algorithms are variants of the
well-known im2col approach.  These convolutions first construct a Toeplitz
matrix from the input image, and convolve this with the kernel using a single
call to the BLAS GEMM routine."

The Toeplitz (patch) matrix expands the input by a factor of ``K^2``, so the
family needs a large workspace ("Bad case: large image" in Table 1) but the
single large GEMM runs at a high fraction of machine peak and the approach
handles strided convolution naturally — which is why the selector picks an
im2row variant for AlexNet's K=11, stride-4 conv1 on both platforms
(Figure 4).  Variants differ in patch-matrix orientation (im2col builds a
``(C*K*K, P)`` matrix from CHW data; im2row builds ``(P, K*K*C)`` from
channel-minor data) and in whether the kernel matrix is passed to GEMM
transposed (the "A BT I K" variant of Figure 4).
"""

from __future__ import annotations

import numpy as np

from repro.graph.scenario import ConvScenario
from repro.layouts.layout import CHW, HWC, Layout
from repro.primitives.base import ConvPrimitive, PrimitiveFamily, PrimitiveTraits


def im2col_matrix(x_chw: np.ndarray, scenario: ConvScenario) -> np.ndarray:
    """Build the ``(C*K*K, outH*outW)`` column-patch (Toeplitz) matrix."""
    c, k, stride = scenario.c, scenario.k, scenario.stride
    out_h, out_w = scenario.out_h, scenario.out_w
    columns = np.empty((c, k, k, out_h, out_w), dtype=x_chw.dtype)
    for kh in range(k):
        for kw in range(k):
            columns[:, kh, kw] = x_chw[
                :,
                kh : kh + (out_h - 1) * stride + 1 : stride,
                kw : kw + (out_w - 1) * stride + 1 : stride,
            ]
    return columns.reshape(c * k * k, out_h * out_w)


def im2row_matrix(x_chw: np.ndarray, scenario: ConvScenario) -> np.ndarray:
    """Build the ``(outH*outW, K*K*C)`` row-patch matrix (channel-minor order)."""
    c, k, stride = scenario.c, scenario.k, scenario.stride
    out_h, out_w = scenario.out_h, scenario.out_w
    rows = np.empty((out_h, out_w, k, k, c), dtype=x_chw.dtype)
    x_hwc = np.transpose(x_chw, (1, 2, 0))
    for kh in range(k):
        for kw in range(k):
            rows[:, :, kh, kw, :] = x_hwc[
                kh : kh + (out_h - 1) * stride + 1 : stride,
                kw : kw + (out_w - 1) * stride + 1 : stride,
                :,
            ]
    return rows.reshape(out_h * out_w, k * k * c)


class _Im2Base(ConvPrimitive):
    """Shared cost structure of the im2 family."""

    def __init__(self, *args, transpose_kernel: bool = False, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.transpose_kernel = transpose_kernel

    def traits(self) -> PrimitiveTraits:
        return PrimitiveTraits(
            gemm_fraction=0.92,
            locality=0.75,
            parallel_efficiency=0.88,
            per_call_overhead_ops=6_000.0,
        )

    def workspace_elements(self, scenario: ConvScenario) -> float:
        # The patch matrix holds K*K copies of every input pixel that appears
        # in a window (per group, per image — the buffer is reused across a
        # batch).
        patch = scenario.out_h * scenario.out_w * scenario.k * scenario.k * (
            scenario.c // scenario.groups
        )
        return float(patch * scenario.groups)


class Im2ColPrimitive(_Im2Base):
    """im2col: CHW input, ``kernel_matrix @ patch_matrix`` GEMM."""

    def __init__(
        self,
        name: str,
        transpose_kernel: bool = False,
        vector_factor: int = 1,
        input_layout: Layout = CHW,
        output_layout: Layout = CHW,
    ) -> None:
        super().__init__(
            name,
            PrimitiveFamily.IM2,
            input_layout=input_layout,
            output_layout=output_layout,
            vector_factor=vector_factor,
            transpose_kernel=transpose_kernel,
        )

    def _compute(self, x_chw: np.ndarray, kernel: np.ndarray, scenario: ConvScenario) -> np.ndarray:
        patches = im2col_matrix(x_chw.astype(np.float64, copy=False), scenario)
        kernel_matrix = kernel.reshape(scenario.m, -1).astype(np.float64, copy=False)
        if self.transpose_kernel:
            # Equivalent GEMM with the kernel operand stored transposed, as in
            # the "A BT I K" selections of Figure 4.
            result = (patches.T @ kernel_matrix.T).T
        else:
            result = kernel_matrix @ patches
        return result.reshape(scenario.m, scenario.out_h, scenario.out_w)


class Im2RowPrimitive(_Im2Base):
    """im2row: channel-minor (HWC) input, ``patch_matrix @ kernel_matrix^T`` GEMM."""

    def __init__(
        self,
        name: str,
        transpose_kernel: bool = False,
        vector_factor: int = 1,
        input_layout: Layout = HWC,
        output_layout: Layout = HWC,
    ) -> None:
        super().__init__(
            name,
            PrimitiveFamily.IM2,
            input_layout=input_layout,
            output_layout=output_layout,
            vector_factor=vector_factor,
            transpose_kernel=transpose_kernel,
        )

    def _compute(self, x_chw: np.ndarray, kernel: np.ndarray, scenario: ConvScenario) -> np.ndarray:
        rows = im2row_matrix(x_chw.astype(np.float64, copy=False), scenario)
        # Kernel reordered to (M, K*K*C) matching the row-patch element order.
        kernel_rows = (
            kernel.astype(np.float64, copy=False)
            .transpose(0, 2, 3, 1)
            .reshape(scenario.m, -1)
        )
        if self.transpose_kernel:
            result = rows @ kernel_rows.T
        else:
            result = (kernel_rows @ rows.T).T
        out_hwm = result.reshape(scenario.out_h, scenario.out_w, scenario.m)
        return np.ascontiguousarray(np.transpose(out_hwm, (2, 0, 1)))

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
from numpy.lib.stride_tricks import sliding_window_view

from repro.graph.scenario import ConvScenario
from repro.layouts.layout import CHW, HWC, Layout
from repro.primitives.base import ConvPrimitive, PrimitiveFamily, PrimitiveTraits


def im2col_matrix(x_chw: np.ndarray, scenario: ConvScenario) -> np.ndarray:
    """Build the ``(C*K*K, outH*outW)`` column-patch (Toeplitz) matrix."""
    k, stride = scenario.k, scenario.stride
    # (C, outH, outW, K, K) strided view of every window, copied once.
    windows = sliding_window_view(x_chw, (k, k), axis=(1, 2))[:, ::stride, ::stride]
    return windows.transpose(0, 3, 4, 1, 2).reshape(scenario.c * k * k, -1)


def im2row_matrix(x_chw: np.ndarray, scenario: ConvScenario) -> np.ndarray:
    """Build the ``(outH*outW, K*K*C)`` row-patch matrix (channel-minor order).

    A grouped scenario gets one row-patch matrix per group, stacked on a
    leading group axis: ``(groups, outH*outW, K*K*C/groups)``.
    """
    k, stride, groups = scenario.k, scenario.stride, scenario.groups
    x_groups = x_chw.reshape((groups, scenario.c // groups) + x_chw.shape[1:])
    # (groups, C/groups, outH, outW, K, K) strided view of every window.
    windows = sliding_window_view(x_groups, (k, k), axis=(2, 3))[:, :, ::stride, ::stride]
    rows = windows.transpose(0, 2, 3, 4, 5, 1).reshape(
        groups, scenario.out_h * scenario.out_w, -1
    )
    return rows[0] if groups == 1 else rows


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

    def _compute(self, x_chw: np.ndarray, kernel: np.ndarray, scenario: ConvScenario) -> np.ndarray:
        # Ungrouped is the one-group case of the group-axis GEMM: every group's
        # patch matrix is built at once and multiplied by one stacked matmul.
        return self._compute_grouped(x_chw, kernel, scenario)


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

    def _compute_grouped(self, x_chw: np.ndarray, kernel: np.ndarray, scenario: ConvScenario) -> np.ndarray:
        groups = scenario.groups
        # (C*K*K, P) is channel-major, so splitting it per group is a reshape.
        patches = im2col_matrix(x_chw.astype(np.float64, copy=False), scenario)
        patches = patches.reshape(groups, -1, patches.shape[1])
        kernel_matrix = kernel.reshape(groups, scenario.m // groups, -1)
        kernel_matrix = kernel_matrix.astype(np.float64, copy=False)
        if self.transpose_kernel:
            # Equivalent GEMM with the kernel operand stored transposed, as in
            # the "A BT I K" selections of Figure 4.
            result = patches.transpose(0, 2, 1) @ kernel_matrix.transpose(0, 2, 1)
            result = result.transpose(0, 2, 1)
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

    def _compute_grouped(self, x_chw: np.ndarray, kernel: np.ndarray, scenario: ConvScenario) -> np.ndarray:
        groups, group_m = scenario.groups, scenario.m // scenario.groups
        out_h, out_w = scenario.out_h, scenario.out_w
        rows = im2row_matrix(x_chw.astype(np.float64, copy=False), scenario)
        rows = rows.reshape(groups, out_h * out_w, -1)
        # Kernel reordered to (groups, M/groups, K*K*C/groups), the row-patch element order.
        kernel_rows = kernel.astype(np.float64, copy=False).transpose(0, 2, 3, 1)
        kernel_rows = kernel_rows.reshape(groups, group_m, -1)
        if self.transpose_kernel:
            result = rows @ kernel_rows.transpose(0, 2, 1)
        else:
            result = (kernel_rows @ rows.transpose(0, 2, 1)).transpose(0, 2, 1)
        out = result.reshape(groups, out_h, out_w, group_m).transpose(0, 3, 1, 2)
        return np.ascontiguousarray(out.reshape(scenario.m, out_h, out_w))

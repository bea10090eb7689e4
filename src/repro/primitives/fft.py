"""The fft family: convolution via the convolution theorem.

Section 4: "the fft family of methods perform FFT convolution via the
convolution theorem, by first computing the Fourier transform of the input
image and the kernel, applying a pointwise multiplication, and then computing
the inverse Fourier transform of the resulting matrix to produce the output.
Our fft implementations compute 2D convolution as a sum of 1D FFT
convolutions, which requires less space than 2D FFT convolution at the cost
of more operations."

Both shapes are provided: the paper's row-wise 1D-sum formulation
(:class:`FFT1DPrimitive`) and a full 2D-FFT formulation
(:class:`FFT2DPrimitive`).  FFT convolution pays a large fixed transform cost
that is only amortized for large kernels, which is why Table 1 lists "small
kernel" as the family's bad case.

The 2D form is the one primitive that runs a minibatch in one call: its
kernel spectra are computed once and shared by every image.  Every other
primitive, the row-wise 1D form included, runs a batch image by image.
"""

from __future__ import annotations

import math

import numpy as np

from repro.graph.scenario import ConvScenario
from repro.layouts.layout import CHW, Layout
from repro.primitives.base import (
    ConvPrimitive,
    PrimitiveFamily,
    PrimitiveTraits,
    pad_scenario,
)


def _fft_length(size: int) -> int:
    """Smallest power of two that holds a linear convolution of this size."""
    length = 1
    while length < size:
        length *= 2
    return length


class _FFTBase(ConvPrimitive):
    """Shared capability and trait structure of the fft family."""

    #: The spectral domain stays float: integer operands stop being integers
    #: after the forward transform, so there is no int8 FFT kernel to offer.
    #: fp16 is fine — the spectra are computed in float regardless, only the
    #: operand storage (and hence traffic and lane packing) narrows.
    supported_dtypes = frozenset({"fp32", "fp16"})

    def supports(self, scenario: ConvScenario, platform=None) -> bool:
        # Strided convolution would waste most of the transformed output;
        # like the paper's implementation we only offer unit stride.  Depthwise
        # scenarios are declined too: with a single input channel per group
        # there is no channel accumulation to amortize the spectra over, and a
        # separate FFT plan per group would have to be set up and torn down —
        # the implementation provides no such kernel.
        return (
            scenario.stride == 1
            and not scenario.is_depthwise
            and self.supports_dtype(scenario.dtype)
            and self.available_on(platform)
        )

    def traits(self) -> PrimitiveTraits:
        return PrimitiveTraits(
            gemm_fraction=0.55,
            locality=0.55,
            parallel_efficiency=0.78,
            per_call_overhead_ops=40_000.0,
        )


class FFT1DPrimitive(_FFTBase):
    """2D convolution as a sum of 1D FFT convolutions along image rows."""

    def __init__(
        self,
        name: str,
        input_layout: Layout = CHW,
        output_layout: Layout = CHW,
        vector_factor: int = 1,
    ) -> None:
        super().__init__(
            name=name,
            family=PrimitiveFamily.FFT,
            input_layout=input_layout,
            output_layout=output_layout,
            vector_factor=vector_factor,
            # Like 1D Winograd, the row-wise FFT sum is a low-memory CPU form
            # with no SIMT kernel; GPU libraries offer the full 2D FFT only.
            excluded_features=("simt",),
        )

    def arithmetic_ops(self, scenario: ConvScenario) -> float:
        c = scenario.c // scenario.groups
        length = _fft_length(scenario.w + scenario.k - 1)
        log_len = max(math.log2(length), 1.0)
        rows = scenario.h
        # Forward transforms of the input rows, kernel-row transforms (the
        # spectra are too large to keep precomputed for every filter),
        # pointwise complex multiplies and inverse transforms.
        filters = scenario.m // scenario.groups
        fft_cost = 5.0 * length * log_len
        forward = c * rows * fft_cost
        kernels = scenario.k * filters * c * fft_cost
        pointwise = scenario.k * filters * c * scenario.out_h * 6.0 * length
        inverse = scenario.k * filters * scenario.out_h * fft_cost
        # The kernel-row spectra are computed once per invocation and shared
        # by every image, so a minibatch amortizes them; the per-image
        # forward/pointwise/inverse work scales with the batch.
        per_image = forward + pointwise + inverse
        return scenario.groups * (scenario.batch * per_image + kernels)

    def workspace_elements(self, scenario: ConvScenario) -> float:
        c = scenario.c // scenario.groups
        length = _fft_length(scenario.w + scenario.k - 1)
        # One row-spectrum slab per channel plus a blocked window of the
        # precomputed kernel-row spectra (complex, hence the factor two); the
        # kernel spectra are streamed in blocks of at most 16 output maps.
        m_block = min(scenario.m // scenario.groups, 16)
        return float(2 * (c * scenario.h * length + m_block * c * scenario.k * length))

    def _compute(self, x_chw: np.ndarray, kernel: np.ndarray, scenario: ConvScenario) -> np.ndarray:
        c, k, m = scenario.c, scenario.k, scenario.m
        out_h, out_w = scenario.out_h, scenario.out_w
        length = _fft_length(scenario.w + k - 1)
        x64 = x_chw.astype(np.float64, copy=False)
        kernel64 = kernel.astype(np.float64, copy=False)

        out = np.zeros((m, out_h, out_w), dtype=np.float64)
        # Precompute kernel row spectra with the rows reversed so that the
        # circular convolution implements correlation.
        kernel_spectra = np.fft.rfft(kernel64[:, :, :, ::-1], n=length, axis=3)  # (M, C, K, F)
        for kh in range(k):
            rows = x64[:, kh : kh + out_h, :]  # (C, out_h, W)
            row_spectra = np.fft.rfft(rows, n=length, axis=2)  # (C, out_h, F)
            # Sum over channels of the pointwise product: (M, out_h, F).
            prod = np.einsum("mcf,chf->mhf", kernel_spectra[:, :, kh, :], row_spectra, optimize=True)
            conv = np.fft.irfft(prod, n=length, axis=2)
            # Full linear convolution with the reversed kernel row: the valid
            # correlation outputs start at index k-1.
            out += conv[:, :, k - 1 : k - 1 + out_w]
        return out


class FFT2DPrimitive(_FFTBase):
    """Full 2D-FFT convolution (more memory, fewer operations per pixel)."""

    def __init__(
        self,
        name: str,
        input_layout: Layout = CHW,
        output_layout: Layout = CHW,
        vector_factor: int = 1,
    ) -> None:
        super().__init__(
            name=name,
            family=PrimitiveFamily.FFT,
            input_layout=input_layout,
            output_layout=output_layout,
            vector_factor=vector_factor,
        )

    def arithmetic_ops(self, scenario: ConvScenario) -> float:
        c = scenario.c // scenario.groups
        fft_h = _fft_length(scenario.h + scenario.k - 1)
        fft_w = _fft_length(scenario.w + scenario.k - 1)
        size = fft_h * fft_w
        log_size = max(math.log2(size), 1.0)
        filters = scenario.m // scenario.groups
        fft_cost = 5.0 * size * log_size
        forward = c * fft_cost
        kernels = filters * c * fft_cost
        pointwise = filters * c * 6.0 * size
        inverse = filters * fft_cost
        # Kernel spectra are batch-amortized (computed once per invocation);
        # forward/pointwise/inverse run once per image.
        per_image = forward + pointwise + inverse
        return scenario.groups * (scenario.batch * per_image + kernels)

    def workspace_elements(self, scenario: ConvScenario) -> float:
        c = scenario.c // scenario.groups
        fft_h = _fft_length(scenario.h + scenario.k - 1)
        fft_w = _fft_length(scenario.w + scenario.k - 1)
        size = fft_h * fft_w
        # Complex spectra of the input channels, a blocked window of the
        # precomputed kernel spectra and the output spectra — still the large
        # footprint that makes 2D-FFT unattractive for DNN layers.
        filters = scenario.m // scenario.groups
        m_block = min(filters, 16)
        return float(2 * (c * size + m_block * c * size + filters * size))

    def _compute(self, x_chw: np.ndarray, kernel: np.ndarray, scenario: ConvScenario) -> np.ndarray:
        c, k, m = scenario.c, scenario.k, scenario.m
        out_h, out_w = scenario.out_h, scenario.out_w
        fft_h = _fft_length(scenario.h + k - 1)
        fft_w = _fft_length(scenario.w + k - 1)
        x64 = x_chw.astype(np.float64, copy=False)
        kernel64 = kernel.astype(np.float64, copy=False)

        input_spectra = np.fft.rfft2(x64, s=(fft_h, fft_w))  # (C, fft_h, F)
        kernel_spectra = np.fft.rfft2(kernel64[:, :, ::-1, ::-1], s=(fft_h, fft_w))  # (M, C, fft_h, F)
        prod = np.einsum("mchf,chf->mhf", kernel_spectra, input_spectra, optimize=True)
        conv = np.fft.irfft2(prod, s=(fft_h, fft_w))
        return conv[:, k - 1 : k - 1 + out_h, k - 1 : k - 1 + out_w]

    def _run_batched(self, x_nchw: np.ndarray, kernel: np.ndarray, scenario: ConvScenario) -> np.ndarray:
        """Batched 2D-FFT path: one set of kernel spectra serves every image.

        The only family with a batch form of its own, because it is the only
        one whose batch shares work across images; grouped scenarios take the
        per-image loop of :meth:`ConvPrimitive._run_batched`.
        """
        if scenario.groups != 1:
            return super()._run_batched(x_nchw, kernel, scenario)
        padded, inner = pad_scenario(x_nchw, scenario)
        k = inner.k
        out_h, out_w = inner.out_h, inner.out_w
        fft_h = _fft_length(inner.h + k - 1)
        fft_w = _fft_length(inner.w + k - 1)
        x64 = padded.astype(np.float64, copy=False)
        kernel64 = kernel.astype(np.float64, copy=False)

        input_spectra = np.fft.rfft2(x64, s=(fft_h, fft_w))  # (N, C, fft_h, F)
        kernel_spectra = np.fft.rfft2(kernel64[:, :, ::-1, ::-1], s=(fft_h, fft_w))
        prod = np.einsum("mchf,nchf->nmhf", kernel_spectra, input_spectra, optimize=True)
        conv = np.fft.irfft2(prod, s=(fft_h, fft_w))
        return conv[:, :, k - 1 : k - 1 + out_h, k - 1 : k - 1 + out_w]

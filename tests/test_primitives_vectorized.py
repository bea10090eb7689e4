"""The vectorized execution forms against test-local copies of the loops they replace.

* The im2 family runs a grouped convolution as one ``np.matmul`` with a
  leading group axis over the all-groups patch matrix.  It must equal, bit
  for bit, a per-group loop of the plain im2col / im2row GEMMs at every
  precision.
* 2D Winograd runs as ``n^2`` stacked GEMMs over a strided tile view.  It
  must match the tile-gather / einsum / tile-scatter form it replaced to
  within float64 rounding, including outputs that are not a multiple of the
  tile.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph.scenario import ConvScenario
from repro.primitives.base import pad_scenario
from repro.primitives.im2 import Im2ColPrimitive, Im2RowPrimitive
from repro.primitives.winograd import Winograd2DPrimitive, winograd_matrices

# ---------------------------------------------------------------------------
# im2: one group-axis matmul == a loop of per-group GEMMs
# ---------------------------------------------------------------------------

GROUPED_SCENARIOS = [
    ConvScenario(c=4, h=9, w=11, stride=1, k=3, m=6, padding=1, groups=2),
    ConvScenario(c=8, h=10, w=10, stride=2, k=3, m=8, padding=1, groups=4),
    ConvScenario(c=8, h=12, w=12, stride=1, k=1, m=12, groups=4),
    ConvScenario(c=6, h=12, w=12, stride=1, k=3, m=6, padding=1, groups=6),
    ConvScenario(c=6, h=13, w=13, stride=2, k=3, m=6, padding=1, groups=6),
    ConvScenario(c=4, h=10, w=10, stride=1, k=5, m=8, padding=2, groups=4),
]


def _per_group_im2col(x, kernel, scenario, transpose_kernel):
    """The ungrouped im2col GEMM, run once per group."""
    k, stride, out_h, out_w = scenario.k, scenario.stride, scenario.out_h, scenario.out_w
    group_c = scenario.c // scenario.groups
    group_m = scenario.m // scenario.groups
    outputs = []
    for g in range(scenario.groups):
        xg = x[g * group_c : (g + 1) * group_c].astype(np.float64)
        columns = np.empty((group_c, k, k, out_h, out_w))
        for kh in range(k):
            for kw in range(k):
                columns[:, kh, kw] = xg[
                    :,
                    kh : kh + (out_h - 1) * stride + 1 : stride,
                    kw : kw + (out_w - 1) * stride + 1 : stride,
                ]
        patches = columns.reshape(group_c * k * k, out_h * out_w)
        kernel_matrix = kernel[g * group_m : (g + 1) * group_m].reshape(group_m, -1)
        kernel_matrix = kernel_matrix.astype(np.float64)
        if transpose_kernel:
            result = (patches.T @ kernel_matrix.T).T
        else:
            result = kernel_matrix @ patches
        outputs.append(result.reshape(group_m, out_h, out_w))
    return np.concatenate(outputs, axis=0)


def _per_group_im2row(x, kernel, scenario, transpose_kernel):
    """The ungrouped im2row GEMM, run once per group."""
    k, stride, out_h, out_w = scenario.k, scenario.stride, scenario.out_h, scenario.out_w
    group_c = scenario.c // scenario.groups
    group_m = scenario.m // scenario.groups
    outputs = []
    for g in range(scenario.groups):
        x_hwc = np.transpose(x[g * group_c : (g + 1) * group_c].astype(np.float64), (1, 2, 0))
        rows = np.empty((out_h, out_w, k, k, group_c))
        for kh in range(k):
            for kw in range(k):
                rows[:, :, kh, kw, :] = x_hwc[
                    kh : kh + (out_h - 1) * stride + 1 : stride,
                    kw : kw + (out_w - 1) * stride + 1 : stride,
                    :,
                ]
        rows = rows.reshape(out_h * out_w, k * k * group_c)
        kernel_rows = (
            kernel[g * group_m : (g + 1) * group_m]
            .astype(np.float64)
            .transpose(0, 2, 3, 1)
            .reshape(group_m, -1)
        )
        if transpose_kernel:
            result = rows @ kernel_rows.T
        else:
            result = (kernel_rows @ rows.T).T
        outputs.append(np.transpose(result.reshape(out_h, out_w, group_m), (2, 0, 1)))
    return np.concatenate(outputs, axis=0)


def _im2_cases():
    for cls, oracle in ((Im2ColPrimitive, _per_group_im2col), (Im2RowPrimitive, _per_group_im2row)):
        for transpose_kernel in (False, True):
            name = f"{cls.__name__}{'_bt' if transpose_kernel else ''}"
            yield pytest.param(cls(name, transpose_kernel=transpose_kernel), oracle, id=name)


class TestGroupAxisIm2:
    @pytest.mark.parametrize("primitive, oracle", list(_im2_cases()))
    @pytest.mark.parametrize("scenario", GROUPED_SCENARIOS, ids=lambda s: s.describe())
    @pytest.mark.parametrize("dtype", ["fp32", "fp16", "int8"])
    def test_equals_per_group_loop(self, primitive, oracle, scenario, dtype, rng):
        scenario = scenario.with_dtype(dtype)
        x = rng.standard_normal(scenario.input_shape).astype(np.float32)
        kernel = rng.standard_normal(scenario.kernel_shape).astype(np.float32)

        def per_group(x, kernel):
            padded, inner = pad_scenario(x, scenario)
            return oracle(padded, kernel, inner, primitive.transpose_kernel)

        expected = primitive._run_precision(x, kernel, scenario, per_group)
        actual = primitive._run_precision(
            x, kernel, scenario, lambda x, k: primitive._run_grouped(x, k, scenario)
        )
        assert actual.shape == scenario.output_shape
        assert np.array_equal(actual, expected)


# ---------------------------------------------------------------------------
# Winograd 2D: GEMM form == the einsum form it replaced
# ---------------------------------------------------------------------------


def _einsum_winograd_2d(x_chw, kernel, scenario, m_tile, r):
    """Tile gather, einsum transforms, per-position tensordot and tile scatter."""
    at, g, bt = winograd_matrices(m_tile, r)
    n = m_tile + r - 1
    out_h, out_w = scenario.out_h, scenario.out_w
    tiles_h, tiles_w = -(-out_h // m_tile), -(-out_w // m_tile)
    pad_h = (tiles_h - 1) * m_tile + n - scenario.h
    pad_w = (tiles_w - 1) * m_tile + n - scenario.w
    x64 = np.pad(
        x_chw.astype(np.float64),
        ((0, 0), (0, max(pad_h, 0)), (0, max(pad_w, 0))),
        mode="constant",
    )
    tiles = np.empty((scenario.c, tiles_h, tiles_w, n, n))
    for th in range(tiles_h):
        for tw in range(tiles_w):
            tiles[:, th, tw] = x64[:, th * m_tile : th * m_tile + n, tw * m_tile : tw * m_tile + n]
    v = np.einsum("cxyik,lk->cxyil", np.einsum("ij,cxyjk->cxyik", bt, tiles), bt)
    u = np.einsum("ij,mcjk,lk->mcil", g, kernel.astype(np.float64), g, optimize=True)
    prod = np.empty((scenario.m, tiles_h, tiles_w, n, n))
    for i in range(n):
        for q in range(n):
            prod[:, :, :, i, q] = np.tensordot(u[:, :, i, q], v[:, :, :, i, q], axes=1)
    y = np.einsum("mxypl,ql->mxypq", np.einsum("pi,mxyil->mxypl", at, prod), at)
    out_full = np.zeros((scenario.m, tiles_h * m_tile, tiles_w * m_tile))
    for th in range(tiles_h):
        for tw in range(tiles_w):
            out_full[
                :, th * m_tile : (th + 1) * m_tile, tw * m_tile : (tw + 1) * m_tile
            ] = y[:, th, tw]
    return out_full[:, :out_h, :out_w]


#: (tile, kernel) pairs: F(2,3), F(4,3) and F(3,5).
WINOGRAD_FORMS = [(2, 3), (4, 3), (3, 5)]

#: Output sizes chosen so that most are not a multiple of any tile.
WINOGRAD_SIZES = [(8, 8), (7, 9), (13, 10), (1, 5)]


class TestWinograd2DGemmForm:
    @pytest.mark.parametrize("tile, r", WINOGRAD_FORMS, ids=lambda v: str(v))
    @pytest.mark.parametrize("out_hw", WINOGRAD_SIZES, ids=lambda v: f"{v[0]}x{v[1]}")
    def test_matches_einsum_form(self, tile, r, out_hw, rng):
        out_h, out_w = out_hw
        scenario = ConvScenario(c=5, h=out_h + r - 1, w=out_w + r - 1, stride=1, k=r, m=7)
        primitive = Winograd2DPrimitive(f"winograd_2d_m{tile}_r{r}", tile=tile, kernel_size=r)
        x = rng.standard_normal(scenario.input_shape).astype(np.float32)
        kernel = rng.standard_normal(scenario.kernel_shape).astype(np.float32)
        actual = primitive._compute(x, kernel, scenario)
        assert actual.shape == scenario.output_shape
        np.testing.assert_allclose(
            actual,
            _einsum_winograd_2d(x, kernel, scenario, tile, r),
            rtol=1e-10,
            atol=1e-10,
        )

    @pytest.mark.parametrize("tile, r", WINOGRAD_FORMS, ids=lambda v: str(v))
    def test_padded_grouped_matches_einsum_form(self, tile, r, rng):
        """Padding and the per-group loop wrap the GEMM form unchanged."""
        scenario = ConvScenario(c=4, h=11, w=9, stride=1, k=r, m=6, padding=r // 2, groups=2)
        primitive = Winograd2DPrimitive(f"winograd_2d_m{tile}_r{r}", tile=tile, kernel_size=r)
        x = rng.standard_normal(scenario.input_shape).astype(np.float32)
        kernel = rng.standard_normal(scenario.kernel_shape).astype(np.float32)
        padded, inner = pad_scenario(x, scenario)
        sub = ConvScenario(c=2, h=inner.h, w=inner.w, stride=1, k=r, m=3)
        expected = np.concatenate([
            _einsum_winograd_2d(padded[2 * g : 2 * g + 2], kernel[3 * g : 3 * g + 3], sub, tile, r)
            for g in range(2)
        ])
        np.testing.assert_allclose(
            primitive._run_grouped(x, kernel, scenario), expected, rtol=1e-10, atol=1e-10
        )

// Compressed-aware cache-blocked transposed SpMV for kernel 3
// (DESIGN.md §12).
//
// Computes y[j] = Σ Aᵀ(j,i)·r[i] with rows of Aᵀ partitioned over the
// pool and the i axis optionally blocked so a slab of r stays
// cache-resident, while the column indices stream in the delta-varint
// group layout of sparse::CompressedCsrMatrix, cutting the structural
// traffic from 8 bytes per edge to the encoded gap width (~1-2 bytes on
// power-law graphs). Groups are decoded word-at-a-time straight into a
// 4-lane unrolled inner loop: the four gathers and multiplies are issued
// independently (the unroll's ILP), then folded into the row's single
// accumulator strictly in increasing-i order — the exact addition sequence
// of the plain per-row loop, so results stay bit-identical (pinned by
// tests/csr_compressed_test.cpp and the golden suite).
#pragma once

#include <cstdint>
#include <vector>

#include "sparse/csr_compressed.hpp"
#include "util/threadpool.hpp"

namespace prpb::perf {

/// Default i-block width: 2^15 doubles of r = 256 KiB, about half a
/// typical L2, leaving room for the streamed arrays.
inline constexpr std::uint64_t kDefaultSpmvBlockCols = std::uint64_t{1} << 15;

/// Computes y[j] = Σ at(j,i) · r[i] for every row j of the compressed
/// `at`, blocked over the i axis; block_cols >= r.size() gives the
/// single-block loop. Each block boundary crossed costs a per-row cursor
/// step, so blocking only pays once r falls out of cache. `r` must have
/// at.cols() entries; `y` is assigned to at.rows(). Bit-identical to the
/// plain per-row loop.
void transposed_spmv_compressed(const sparse::CompressedCsrMatrix& at,
                                const std::vector<double>& r,
                                std::vector<double>& y,
                                util::ThreadPool& pool,
                                std::uint64_t block_cols =
                                    kDefaultSpmvBlockCols);

}  // namespace prpb::perf

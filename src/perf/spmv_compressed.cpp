#include "perf/spmv_compressed.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace prpb::perf {

namespace {

using sparse::ccsr::lane_mask;
using sparse::ccsr::lane_width;
using sparse::ccsr::load8;

/// Mid-group resume state for the blocked path. `byte` points at the
/// control byte of the group currently being consumed; `lane` is the next
/// undecoded lane within it (0 == fresh group); `col` is the last decoded
/// column (the delta base); `k` is the next entry index into values.
struct RowCursor {
  std::uint64_t byte = 0;
  std::uint64_t k = 0;
  std::uint64_t col = 0;
  std::uint32_t lane = 0;
};

}  // namespace

void transposed_spmv_compressed(const sparse::CompressedCsrMatrix& at,
                                const std::vector<double>& r,
                                std::vector<double>& y,
                                util::ThreadPool& pool,
                                std::uint64_t block_cols) {
  util::require(r.size() == at.cols(),
                "transposed_spmv_compressed: r size must equal at.cols()");
  util::require(block_cols >= 1,
                "transposed_spmv_compressed: block width must be >= 1");
  const std::vector<std::uint64_t>& entry_ptr = at.entry_ptr();
  const std::vector<std::uint64_t>& byte_ptr = at.byte_ptr();
  const std::uint8_t* encoded = at.encoded().data();
  const std::vector<double>& values = at.values();

  if (r.size() <= block_cols) {
    // Single block: decode whole groups straight into the 4-way unrolled
    // loop. The four gathers/multiplies are independent (ILP across
    // lanes); the folds into acc stay in lane order, matching the plain
    // per-edge loop bit for bit.
    y.assign(at.rows(), 0.0);
    util::parallel_for_chunks(
        pool, 0, at.rows(), [&](std::uint64_t lo, std::uint64_t hi) {
          for (std::uint64_t j = lo; j < hi; ++j) {
            const std::uint8_t* p = encoded + byte_ptr[j];
            std::uint64_t k = entry_ptr[j];
            const std::uint64_t end = entry_ptr[j + 1];
            std::uint64_t col = 0;
            double acc = 0.0;
            while (end - k >= 4) {
              const std::uint8_t control = *p++;
              const std::uint32_t w0 = lane_width(control, 0);
              const std::uint32_t w1 = lane_width(control, 1);
              const std::uint32_t w2 = lane_width(control, 2);
              const std::uint32_t w3 = lane_width(control, 3);
              const std::uint64_t c0 = col + (load8(p) & lane_mask(w0));
              p += w0;
              const std::uint64_t c1 = c0 + (load8(p) & lane_mask(w1));
              p += w1;
              const std::uint64_t c2 = c1 + (load8(p) & lane_mask(w2));
              p += w2;
              const std::uint64_t c3 = c2 + (load8(p) & lane_mask(w3));
              p += w3;
              const double t0 = values[k] * r[c0];
              const double t1 = values[k + 1] * r[c1];
              const double t2 = values[k + 2] * r[c2];
              const double t3 = values[k + 3] * r[c3];
              acc += t0;
              acc += t1;
              acc += t2;
              acc += t3;
              col = c3;
              k += 4;
            }
            if (k < end) {
              // Short tail group with 1-3 lanes.
              const std::uint8_t control = *p++;
              for (std::uint32_t lane = 0; k < end; ++lane, ++k) {
                const std::uint32_t width = lane_width(control, lane);
                col += load8(p) & lane_mask(width);
                p += width;
                acc += values[k] * r[col];
              }
            }
            y[j] = acc;
          }
        });
    return;
  }

  y.assign(at.rows(), 0.0);
  // Per-row cursor advanced monotonically across i blocks; besides the
  // next entry it carries mid-group decode state: a block boundary can
  // land inside a 4-lane group, and on resume the control byte is re-read
  // and the already-consumed lanes skipped. Within each block the
  // group-at-a-time unrolled path runs whenever a fresh group fits
  // entirely below the block edge (the common case at 2^15-wide blocks
  // versus ~tens-of-entries rows).
  std::vector<RowCursor> cursor(at.rows());
  util::parallel_for_chunks(pool, 0, at.rows(),
                            [&](std::uint64_t lo, std::uint64_t hi) {
                              for (std::uint64_t j = lo; j < hi; ++j) {
                                cursor[j].byte = byte_ptr[j];
                                cursor[j].k = entry_ptr[j];
                              }
                            });
  for (std::uint64_t i0 = 0; i0 < r.size(); i0 += block_cols) {
    const std::uint64_t i1 =
        std::min<std::uint64_t>(r.size(), i0 + block_cols);
    util::parallel_for_chunks(
        pool, 0, at.rows(), [&](std::uint64_t lo, std::uint64_t hi) {
          for (std::uint64_t j = lo; j < hi; ++j) {
            RowCursor cur = cursor[j];
            const std::uint64_t end = entry_ptr[j + 1];
            if (cur.k >= end) continue;
            double acc = y[j];
            bool beyond_block = false;
            while (cur.k < end && !beyond_block) {
              const std::uint8_t* p = encoded + cur.byte;
              const std::uint8_t control = *p++;
              if (cur.lane == 0 && end - cur.k >= 4) {
                // Fresh full group: decode all four columns, and if the
                // whole group lands in this block take the unrolled path.
                const std::uint32_t w0 = lane_width(control, 0);
                const std::uint32_t w1 = lane_width(control, 1);
                const std::uint32_t w2 = lane_width(control, 2);
                const std::uint32_t w3 = lane_width(control, 3);
                const std::uint64_t c0 =
                    cur.col + (load8(p) & lane_mask(w0));
                const std::uint64_t c1 =
                    c0 + (load8(p + w0) & lane_mask(w1));
                const std::uint64_t c2 =
                    c1 + (load8(p + w0 + w1) & lane_mask(w2));
                const std::uint64_t c3 =
                    c2 + (load8(p + w0 + w1 + w2) & lane_mask(w3));
                if (c3 < i1) {
                  const std::uint64_t k = cur.k;
                  const double t0 = values[k] * r[c0];
                  const double t1 = values[k + 1] * r[c1];
                  const double t2 = values[k + 2] * r[c2];
                  const double t3 = values[k + 3] * r[c3];
                  acc += t0;
                  acc += t1;
                  acc += t2;
                  acc += t3;
                  cur.col = c3;
                  cur.k += 4;
                  cur.byte += 1 + w0 + w1 + w2 + w3;
                  continue;
                }
              }
              // Group straddles the block edge, is a short tail, or is
              // being resumed mid-group: advance lane by lane. The group
              // started at entry cur.k - cur.lane.
              const std::uint64_t group_lanes =
                  std::min<std::uint64_t>(4, end - (cur.k - cur.lane));
              for (std::uint32_t lane = 0; lane < cur.lane; ++lane) {
                p += lane_width(control, lane);
              }
              while (cur.lane < group_lanes) {
                const std::uint32_t width = lane_width(control, cur.lane);
                const std::uint64_t next =
                    cur.col + (load8(p) & lane_mask(width));
                if (next >= i1) {
                  beyond_block = true;
                  break;
                }
                p += width;
                acc += values[cur.k] * r[next];
                cur.col = next;
                ++cur.k;
                ++cur.lane;
              }
              if (cur.lane == group_lanes) {
                // Group exhausted: p now sits on the next control byte.
                cur.byte = static_cast<std::uint64_t>(p - encoded);
                cur.lane = 0;
              }
            }
            y[j] = acc;
            cursor[j] = cur;
          }
        });
  }
}

}  // namespace prpb::perf

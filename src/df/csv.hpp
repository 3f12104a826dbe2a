// Edge-stage I/O for the dataframe engine (pandas read_csv/to_csv
// analogue). An edge stage holds a frame of two int64 columns, `u` and `v`.
//
// With the TSV codec every field round-trips through a std::string — the
// columnar but generic cost profile the dataframe backend is meant to
// exhibit — and the on-disk bytes match the other backends'. Other codecs
// decode/encode typed edge batches directly.
#pragma once

#include <cstdint>
#include <string>

#include "df/dataframe.hpp"
#include "io/stage_codec.hpp"
#include "io/stage_store.hpp"

namespace prpb::df {

/// Reads every shard of an edge stage (sorted shard order) into a frame of
/// int64 columns `u` and `v`. Throws IoError on a malformed TSV line: a
/// non-integer field, or a line without exactly two fields.
DataFrame read_edge_stage(io::StageStore& store, const std::string& stage,
                          const io::StageCodec& codec);

/// Writes a two-int64-column frame row-partitioned into `shards` shards of
/// `stage` (cleared first). Returns total bytes written.
std::uint64_t write_edge_stage(const DataFrame& frame, io::StageStore& store,
                               const std::string& stage, std::size_t shards,
                               const io::StageCodec& codec);

}  // namespace prpb::df

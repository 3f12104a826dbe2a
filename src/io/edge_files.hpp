// Sharded edge-file stages. Each pipeline kernel reads a stage of edge
// shards and writes another; "the number of files is a free parameter"
// (paper §IV.A), so the shard count is part of the stage layout.
//
// Every helper takes a (StageStore, stage) pair and a StageCodec — the
// kernel seam: any storage, any encoding. A directory on disk is a stage
// of a DirStageStore; a TSV stage in a given flavor uses tsv_codec().
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "gen/edge.hpp"
#include "gen/generator.hpp"
#include "io/stage_codec.hpp"
#include "io/stage_store.hpp"
#include "obs/trace.hpp"

namespace prpb::io {

/// Splits `total` items into `shards` near-equal contiguous ranges.
/// Returns shard boundaries of size shards+1 (first 0, last total).
std::vector<std::uint64_t> shard_boundaries(std::uint64_t total,
                                            std::size_t shards);

/// Writes all edges of `generator` into `shards` shards of `stage`
/// (created if needed, cleared of stale shards first). Returns bytes
/// written. The optional hooks attribute per-shard codec time in traces.
std::uint64_t write_generated_edges(StageStore& store,
                                    const std::string& stage,
                                    const gen::EdgeGenerator& generator,
                                    std::size_t shards,
                                    const StageCodec& codec,
                                    obs::Hooks hooks = {});

/// Writes an in-memory edge list into `shards` shards of `stage`.
std::uint64_t write_edge_list(StageStore& store, const std::string& stage,
                              const gen::EdgeList& edges, std::size_t shards,
                              const StageCodec& codec, obs::Hooks hooks = {});

/// Reads one shard of a stage fully.
gen::EdgeList read_edge_shard(StageStore& store, const std::string& stage,
                              const std::string& shard,
                              const StageCodec& codec, obs::Hooks hooks = {});

/// Reads every shard of `stage` (sorted shard order) into one list,
/// through EdgeBatchReader::read_all(); to scan a stage in bounded memory,
/// use EdgeBatchReader::next() instead. The list is
/// reserved once at `expected_edges` records; a stage holding more still
/// decodes, growing geometrically past the hint.
gen::EdgeList read_all_edges(StageStore& store, const std::string& stage,
                             const StageCodec& codec, obs::Hooks hooks = {},
                             std::uint64_t expected_edges = 0);

/// Number of decoded records in the stage.
std::uint64_t count_edges(StageStore& store, const std::string& stage,
                          const StageCodec& codec);

}  // namespace prpb::io

// TSV edge codecs. Kernel 0/1 files are "pairs of tab separated numeric
// strings with a newline between each edge" (paper §IV.A).
//
// Two codecs are provided:
//  * fast    — hand-rolled digit parsing/formatting; what a tuned C++
//              implementation uses (the `native` backend).
//  * generic — iostream/locale-based conversion; deliberately the kind of
//              string path an interpreted stack pays for, used by the
//              `arraylang` and `dataframe` backends to keep their I/O cost
//              profile honest.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "gen/edge.hpp"

namespace prpb::io {

enum class Codec { kFast, kGeneric };

/// Appends "u\tv\n" for each of `count` edges using the fast digit
/// formatter. `out` grows once, to `count` records as wide as the widest
/// ids plus 8 bytes of slack, and is trimmed after.
void append_edges_fast(std::string& out, const gen::Edge* edges,
                       std::size_t count);

/// Appends `count` edges in `codec`: kFast through append_edges_fast,
/// kGeneric one edge at a time through generic stream formatting.
void append_edges(std::string& out, const gen::Edge* edges, std::size_t count,
                  Codec codec);

/// Parses every complete "u\tv\n" line in `text` and appends to `out`.
/// Returns the number of bytes consumed (always ends at a line boundary;
/// a trailing partial line is left unconsumed for the caller to carry over).
/// Throws IoError on malformed lines. This is the scalar reference
/// implementation the SWAR hot loop is conformance-tested against.
std::size_t parse_edges_fast(std::string_view text, gen::EdgeList& out);

/// Same contract and behavior as parse_edges_fast, via word-at-a-time
/// (SWAR) newline/tab search and branch-light digit parsing. Lines the
/// hot loop cannot take (empty, CRLF, malformed, too close to the buffer
/// end for whole-word loads) drop to the scalar lane one line at a time,
/// so results and errors are byte-identical to parse_edges_fast.
std::size_t parse_edges_swar(std::string_view text, gen::EdgeList& out);

/// Dispatch: kFast routes to the SWAR hot loop, kGeneric to the
/// deliberately generic string path (same contract as parse_edges_fast,
/// via generic string conversion).
std::size_t parse_edges(std::string_view text, gen::EdgeList& out,
                        Codec codec);

/// Parses one full line "u\tv" (no newline). Throws IoError when malformed.
gen::Edge parse_edge_line(std::string_view line, Codec codec);

}  // namespace prpb::io

// TSV edge codecs. Kernel 0/1 files are "pairs of tab separated numeric
// strings with a newline between each edge" (paper §IV.A).
//
// Two codecs are provided:
//  * fast    — an SSE2 structural scan with multiply-shift digit parsing,
//              and hand-rolled formatting; what a tuned C++ implementation
//              uses (the `native` backend).
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
/// implementation the structural lane is conformance-tested against.
std::size_t parse_edges_scalar(std::string_view text, gen::EdgeList& out);

/// Same contract and behavior as parse_edges_scalar. On SSE2 hosts each
/// line's first 16 bytes (32 when they hold no newline) are classified into
/// newline, tab and digit bitmasks, and a line that is "u\tv\n" with 1..16
/// digits per field is converted by multiply-shift digit parsing. Every
/// other line (empty, CRLF, malformed, longer fields, or within 40 bytes of
/// the buffer end), and every line on other hosts, goes through the scalar
/// reference's line parser, so results and errors are byte-identical.
std::size_t parse_edges_structural(std::string_view text, gen::EdgeList& out);

/// Dispatch: kFast routes to the structural lane, kGeneric to the
/// deliberately generic string path (same contract as parse_edges_scalar,
/// via generic string conversion).
std::size_t parse_edges(std::string_view text, gen::EdgeList& out,
                        Codec codec);

/// Parses one full line "u\tv" (no newline). Throws IoError when malformed.
gen::Edge parse_edge_line(std::string_view line, Codec codec);

}  // namespace prpb::io

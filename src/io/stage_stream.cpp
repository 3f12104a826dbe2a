#include "io/stage_stream.hpp"

namespace prpb::io {

std::unique_ptr<ReadView> StageReader::view() {
  std::string data;
  for (;;) {
    const std::string_view chunk = read_chunk();
    if (chunk.empty()) break;
    data.append(chunk);
  }
  return std::make_unique<ReadView>(std::move(data));
}

}  // namespace prpb::io

#include "core/config.hpp"

#include "core/algorithm.hpp"
#include "util/error.hpp"

namespace prpb::core {

void PipelineConfig::validate() const {
  util::require(scale >= 1 && scale <= 32,
                "pipeline: scale must be in [1, 32]");
  util::require(edge_factor >= 1, "pipeline: edge_factor must be >= 1");
  util::require(num_files >= 1, "pipeline: num_files must be >= 1");
  util::require(iterations >= 0, "pipeline: iterations must be >= 0");
  util::require(damping >= 0.0 && damping <= 1.0,
                "pipeline: damping must be in [0, 1]");
  util::require(generator == "kronecker" || generator == "bter" ||
                    generator == "ppl",
                "pipeline: generator must be kronecker|bter|ppl");
  if (source != "generator" && source != "external") {
    throw util::ConfigError("pipeline: unknown source '" + source +
                            "' (valid values: generator, external)");
  }
  if (source == "external") {
    util::require(!input_path.empty(),
                  "pipeline: the external source requires an input path "
                  "(--input <edge-list file>)");
  } else {
    util::require(input_path.empty(),
                  "pipeline: an input path requires source = external");
  }
  util::require(!algorithms.empty(), "pipeline: algorithm list is empty");
  for (const auto& algorithm : algorithms) {
    if (!is_algorithm_name(algorithm)) {
      throw util::ConfigError("pipeline: unknown algorithm '" + algorithm +
                              "' (valid values: " +
                              joined_algorithm_names() + ")");
    }
  }
  if (storage != "dir" && storage != "mem") {
    throw util::ConfigError("pipeline: unknown storage '" + storage +
                            "' (valid values: dir, mem)");
  }
  io::parse_stage_format(stage_format);  // throws listing valid values
  util::require(storage == "mem" || !work_dir.empty(),
                "pipeline: work_dir must be set for dir storage");
}

std::unique_ptr<io::StageStore> make_stage_store(
    const PipelineConfig& config) {
  if (config.storage == "dir") {
    util::require(!config.work_dir.empty(),
                  "make_stage_store: work_dir must be set for dir storage");
    return std::make_unique<io::DirStageStore>(config.work_dir);
  }
  if (config.storage == "mem") return std::make_unique<io::MemStageStore>();
  throw util::ConfigError("make_stage_store: unknown storage '" +
                          config.storage + "' (valid values: dir, mem)");
}

const io::StageCodec& make_stage_codec(const PipelineConfig& config,
                                       io::Codec flavor) {
  return io::stage_codec(io::parse_stage_format(config.stage_format), flavor);
}

std::uint64_t stage_config_fingerprint(const PipelineConfig& config) {
  // FNV-1a over a canonical rendering of every stage-determining knob.
  // Presentation knobs (storage tier, work_dir, observability) are
  // deliberately excluded: the same stages are resumable wherever they
  // physically live.
  std::string canon =
      "scale=" + std::to_string(config.scale) +
      ";edge_factor=" + std::to_string(config.edge_factor) +
      ";seed=" + std::to_string(config.seed) +
      ";generator=" + config.generator +
      ";num_files=" + std::to_string(config.num_files) +
      ";stage_format=" + config.stage_format +
      ";sort_key=" + std::to_string(static_cast<int>(config.sort_key));
  // The source determines stage bytes too. Appended only for non-default
  // sources so generator fingerprints — and therefore every previously
  // persisted checkpoint manifest — are unchanged. The K3 algorithm list
  // is deliberately excluded: it produces no stage bytes.
  if (config.source != "generator") {
    canon += ";source=" + config.source +
             ";input=" + config.input_path.string();
  }
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : canon) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

sparse::PageRankConfig PipelineConfig::pagerank_config() const {
  sparse::PageRankConfig pr;
  pr.iterations = iterations;
  pr.damping = damping;
  pr.seed = seed;
  return pr;
}

RunSize run_size(int scale, int edge_factor) {
  util::require(scale >= 1 && scale <= 40, "run_size: scale in [1, 40]");
  RunSize size;
  size.scale = scale;
  size.max_vertices = 1ULL << scale;
  size.max_edges = static_cast<std::uint64_t>(edge_factor) * size.max_vertices;
  size.memory_bytes = 16 * size.max_edges;  // 16 bytes per edge, Table II
  return size;
}

}  // namespace prpb::core

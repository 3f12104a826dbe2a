// Machine-readable run reports: serializes a pipeline run (configuration,
// per-kernel metrics, output checksums, optional validation) as JSON, so
// external tooling can track benchmark results across runs and systems.
#pragma once

#include <optional>
#include <string>

#include "core/config.hpp"
#include "core/runner.hpp"
#include "core/validate.hpp"

namespace prpb::core {

/// Renders a full run report as a JSON document.
std::string run_report_json(const PipelineConfig& config,
                            const PipelineResult& result,
                            const std::optional<EigenCheck>& check = {});

}  // namespace prpb::core

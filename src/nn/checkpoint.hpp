// Model checkpointing: save/restore all trainable parameters of a
// GnnModel to a versioned binary file.  Long-running large-graph
// training (days per run on billion-edge graphs) is not restartable
// without this.
#pragma once

#include <string>

#include "nn/model.hpp"

namespace hyscale {

/// Writes every parameter tensor (values only, not optimizer state);
/// throws std::runtime_error on I/O failure.
void save_checkpoint(const GnnModel& model, const std::string& path);

/// Restores parameters written by save_checkpoint into `model`.  The
/// model must have the same architecture (same parameter shapes);
/// mismatches, truncation and trailing bytes throw std::runtime_error,
/// and a load that throws leaves `model` unchanged.
void load_checkpoint(GnnModel& model, const std::string& path);

}  // namespace hyscale

#include "nn/checkpoint.hpp"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <stdexcept>
#include <vector>

namespace hyscale {

namespace {
constexpr std::uint64_t kMagic = 0x48595343'4B505401ULL;  // "HYSC" "KPT" v1
}

void save_checkpoint(const GnnModel& model, const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("save_checkpoint: cannot open " + path);
  const auto params = model.parameters();
  const std::uint64_t magic = kMagic;
  const auto count = static_cast<std::uint64_t>(params.size());
  out.write(reinterpret_cast<const char*>(&magic), sizeof(magic));
  out.write(reinterpret_cast<const char*>(&count), sizeof(count));
  for (const Param* param : params) {
    const std::int64_t rows = param->value.rows();
    const std::int64_t cols = param->value.cols();
    out.write(reinterpret_cast<const char*>(&rows), sizeof(rows));
    out.write(reinterpret_cast<const char*>(&cols), sizeof(cols));
    out.write(reinterpret_cast<const char*>(param->value.data()),
              static_cast<std::streamsize>(param->value.size() * sizeof(float)));
  }
  if (!out) throw std::runtime_error("save_checkpoint: write failed for " + path);
}

void load_checkpoint(GnnModel& model, const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("load_checkpoint: cannot open " + path);
  std::uint64_t magic = 0, count = 0;
  in.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  in.read(reinterpret_cast<char*>(&count), sizeof(count));
  if (!in || magic != kMagic) throw std::runtime_error("load_checkpoint: bad header in " + path);
  const auto params = model.parameters();
  if (count != params.size())
    throw std::runtime_error("load_checkpoint: parameter count mismatch in " + path);
  // Every tensor is read into a staging buffer first and the model is
  // written only once the whole file has checked out, so a failed load
  // leaves the model exactly as it was.
  std::vector<std::vector<float>> staged(params.size());
  for (std::size_t i = 0; i < params.size(); ++i) {
    const Tensor& value = params[i]->value;
    std::int64_t rows = 0, cols = 0;
    in.read(reinterpret_cast<char*>(&rows), sizeof(rows));
    in.read(reinterpret_cast<char*>(&cols), sizeof(cols));
    if (!in || rows != value.rows() || cols != value.cols())
      throw std::runtime_error("load_checkpoint: shape mismatch in " + path);
    staged[i].resize(static_cast<std::size_t>(value.size()));
    in.read(reinterpret_cast<char*>(staged[i].data()),
            static_cast<std::streamsize>(staged[i].size() * sizeof(float)));
    if (!in) throw std::runtime_error("load_checkpoint: truncated file " + path);
  }
  if (in.peek() != std::ifstream::traits_type::eof())
    throw std::runtime_error("load_checkpoint: trailing bytes in " + path);
  for (std::size_t i = 0; i < params.size(); ++i) {
    std::copy(staged[i].begin(), staged[i].end(), params[i]->value.data());
  }
}

}  // namespace hyscale

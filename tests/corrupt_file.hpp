// Helpers for the seeded corrupt-input harnesses over the binary
// loaders (graph/io, nn/checkpoint): byte-level file access, bit flips,
// and a log of every input whose load escaped the contract "loads, or
// throws std::runtime_error".
#pragma once

#include <cstdint>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <typeinfo>
#include <vector>

namespace hyscale::testing_corrupt {

inline std::vector<char> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

inline void write_file(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

inline std::vector<char> flip_bit(std::vector<char> bytes, std::size_t bit) {
  bytes[bit / 8] = static_cast<char>(bytes[bit / 8] ^ (1 << (bit % 8)));
  return bytes;
}

/// Overwrites the little-endian 8-byte field at `offset`.
inline std::vector<char> with_u64(std::vector<char> bytes, std::size_t offset,
                                  std::uint64_t value) {
  for (std::size_t i = 0; i < 8; ++i) {
    bytes[offset + i] = static_cast<char>((value >> (8 * i)) & 0xff);
  }
  return bytes;
}

/// Runs `load`.  Returns "" when the outcome keeps the contract: a
/// std::runtime_error, or (only if `may_load`) a normal return.
/// Otherwise describes what escaped.
template <typename Load>
std::string escape_of(Load&& load, bool may_load) {
  try {
    load();
    return may_load ? "" : "loaded without error";
  } catch (const std::runtime_error&) {
    return "";
  } catch (const std::exception& e) {
    return std::string("escaped as ") + typeid(e).name() + " (" + e.what() + ")";
  } catch (...) {
    return "escaped as a non-std exception";
  }
}

/// Every corrupt input tried, and the ones that broke the contract.
struct EscapeLog {
  std::int64_t inputs = 0;
  std::vector<std::string> escapes;

  void record(const std::string& input, const std::string& escape) {
    ++inputs;
    if (!escape.empty()) escapes.push_back(input + ": " + escape);
  }

  std::string summary() const {
    std::string out = std::to_string(escapes.size()) + " of " + std::to_string(inputs) +
                      " corrupt inputs broke the contract, e.g.";
    for (std::size_t i = 0; i < escapes.size() && i < 5; ++i) out += "\n  " + escapes[i];
    return out;
  }
};

}  // namespace hyscale::testing_corrupt

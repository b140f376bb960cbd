#include "graph/io.hpp"

#include <cstdint>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace hyscale {

namespace {
constexpr std::uint64_t kMagic = 0x48595343'53520001ULL;  // "HYSC" "SR" v1
}

void save_csr(const CsrGraph& graph, const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("save_csr: cannot open " + path);
  const std::uint64_t magic = kMagic;
  const std::uint64_t n = static_cast<std::uint64_t>(graph.num_vertices());
  const std::uint64_t m = static_cast<std::uint64_t>(graph.num_edges());
  out.write(reinterpret_cast<const char*>(&magic), sizeof(magic));
  out.write(reinterpret_cast<const char*>(&n), sizeof(n));
  out.write(reinterpret_cast<const char*>(&m), sizeof(m));
  out.write(reinterpret_cast<const char*>(graph.indptr().data()),
            static_cast<std::streamsize>(graph.indptr().size() * sizeof(EdgeId)));
  out.write(reinterpret_cast<const char*>(graph.indices().data()),
            static_cast<std::streamsize>(graph.indices().size() * sizeof(VertexId)));
  if (!out) throw std::runtime_error("save_csr: write failed for " + path);
}

CsrGraph load_csr(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) throw std::runtime_error("load_csr: cannot open " + path);
  const std::streamoff file_size = in.tellg();
  in.seekg(0);
  std::uint64_t magic = 0, n = 0, m = 0;
  in.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  in.read(reinterpret_cast<char*>(&n), sizeof(n));
  in.read(reinterpret_cast<char*>(&m), sizeof(m));
  if (!in || file_size < 0 || magic != kMagic)
    throw std::runtime_error("load_csr: bad header in " + path);
  // The header's sizes are checked against the file before anything is
  // allocated: the payload must be exactly (n + 1) indptr entries plus
  // m indices, 8 bytes each.  Compared in entry counts so no product or
  // sum can overflow.
  static_assert(sizeof(EdgeId) == 8 && sizeof(VertexId) == 8);
  const auto payload = static_cast<std::uint64_t>(file_size) - 3 * sizeof(std::uint64_t);
  const std::uint64_t entries = payload / 8;
  if (payload % 8 != 0 || n >= entries || m != entries - (n + 1))
    throw std::runtime_error("load_csr: header sizes (n=" + std::to_string(n) +
                             ", m=" + std::to_string(m) + ") disagree with the " +
                             std::to_string(file_size) + "-byte file " + path);
  std::vector<EdgeId> indptr(static_cast<std::size_t>(n) + 1);
  std::vector<VertexId> indices(static_cast<std::size_t>(m));
  in.read(reinterpret_cast<char*>(indptr.data()),
          static_cast<std::streamsize>(indptr.size() * sizeof(EdgeId)));
  in.read(reinterpret_cast<char*>(indices.data()),
          static_cast<std::streamsize>(indices.size() * sizeof(VertexId)));
  if (!in) throw std::runtime_error("load_csr: truncated file " + path);
  try {
    CsrGraph graph(std::move(indptr), std::move(indices));
    if (graph.validate()) return graph;
  } catch (const std::invalid_argument& e) {
    throw std::runtime_error("load_csr: corrupt graph in " + path + ": " + e.what());
  }
  throw std::runtime_error("load_csr: corrupt graph in " + path);
}

}  // namespace hyscale

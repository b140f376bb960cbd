// Binary serialisation of CSR graphs (versioned, endianness-naive —
// single-host format, mirrors how preprocessed OGB shards are cached on
// disk between runs).
#pragma once

#include <string>

#include "graph/csr.hpp"

namespace hyscale {

/// Writes `graph` to `path`; throws std::runtime_error on I/O failure.
void save_csr(const CsrGraph& graph, const std::string& path);

/// Loads and validates a graph written by save_csr; throws
/// std::runtime_error naming `path` on I/O failure, bad magic, header
/// sizes that disagree with the file's length (checked before any
/// allocation, so trailing bytes are rejected too), or corrupt
/// structure.
CsrGraph load_csr(const std::string& path);

}  // namespace hyscale

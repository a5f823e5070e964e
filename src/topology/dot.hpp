// Graphviz (DOT) export of an inter-AD topology, optionally with a
// highlighted route -- used by the examples to visualize the paper's
// Figure-1 world and the policy routes computed over it.
#pragma once

#include <span>
#include <string>

#include "topology/graph.hpp"

namespace idr {

struct DotOptions {
  // ADs on this path get a bold outline; its links are colored.
  std::span<const AdId> highlight_path;
};

// Down links are drawn dashed gray.
std::string to_dot(const Topology& topo, const DotOptions& options = {});

}  // namespace idr

#include "topology/dot.hpp"

#include <algorithm>

namespace idr {
namespace {

const char* fill_for(AdClass cls) {
  switch (cls) {
    case AdClass::kBackbone: return "#c6dbef";
    case AdClass::kRegional: return "#e5f5e0";
    case AdClass::kMetro: return "#fee6ce";
    case AdClass::kCampus: return "#f2f0f7";
  }
  return "#ffffff";
}

const char* shape_for(AdRole role) {
  switch (role) {
    case AdRole::kTransit: return "box";
    case AdRole::kHybrid: return "hexagon";
    case AdRole::kStub: return "ellipse";
    case AdRole::kMultiHomed: return "doublecircle";
  }
  return "ellipse";
}

bool on_path(std::span<const AdId> path, AdId ad) {
  return std::find(path.begin(), path.end(), ad) != path.end();
}

bool edge_on_path(std::span<const AdId> path, AdId a, AdId b) {
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    if ((path[i] == a && path[i + 1] == b) ||
        (path[i] == b && path[i + 1] == a)) {
      return true;
    }
  }
  return false;
}

}  // namespace

std::string to_dot(const Topology& topo, const DotOptions& options) {
  std::string out = "graph interad {\n";
  out += "  layout=dot;\n  rankdir=TB;\n  node [style=filled];\n";
  for (const Ad& ad : topo.ads()) {
    out += "  n" + std::to_string(ad.id.v) + " [label=\"" + ad.name +
           "\" shape=" + shape_for(ad.role) + " fillcolor=\"" +
           fill_for(ad.cls) + "\"";
    if (on_path(options.highlight_path, ad.id)) {
      out += " penwidth=3 color=\"#d62728\"";
    }
    out += "];\n";
  }
  for (const Link& l : topo.links()) {
    out += "  n" + std::to_string(l.a.v) + " -- n" + std::to_string(l.b.v) +
           " [";
    if (!l.up) {
      out += "style=dashed color=gray";
    } else if (edge_on_path(options.highlight_path, l.a, l.b)) {
      out += "penwidth=3 color=\"#d62728\"";
    } else {
      switch (l.cls) {
        case LinkClass::kHierarchical: out += "color=black"; break;
        case LinkClass::kLateral: out += "style=dotted color=blue"; break;
        case LinkClass::kBypass: out += "style=bold color=darkgreen"; break;
      }
    }
    out += "];\n";
  }
  out += "}\n";
  return out;
}

}  // namespace idr

// A small textual policy language.
//
// The paper (§6) expects "local administrators to specify policies for
// their ADs"; this module gives them a configuration syntax instead of
// C++ structure literals. One statement per line; '#' starts a comment.
//
//   term owner=Reg-1 src={Campus-0,Campus-2} dst=* prev=* next={BB-West}
//   term owner=Reg-1 qos={default,low-delay} uci={research} hours=8-18 cost=3
//   source Campus-0 avoid={BB-East} max-hops=12 prefer=cost
//
// AD names resolve against the Topology's AD names. `*` means "any".
// Omitted attributes default to "any" / full masks / cost 1.
// parse_policies() returns either a PolicySet or a diagnostic with the
// offending line. format_policies() renders a PolicySet back to the
// language (round-trip tested).
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <variant>

#include "policy/database.hpp"
#include "topology/graph.hpp"

namespace idr {

struct DslError {
  std::size_t line = 0;  // 1-based
  std::string message;

  [[nodiscard]] std::string describe() const {
    return "line " + std::to_string(line) + ": " + message;
  }
};

using DslResult = std::variant<PolicySet, DslError>;

// Parses the policy language against `topo` (for name resolution).
DslResult parse_policies(const Topology& topo, std::string_view text);

// Renders a PolicySet in the language; parse(format(p)) == p.
std::string format_policies(const Topology& topo, const PolicySet& policies);

// Finds an AD by exact name; nullopt if missing.
std::optional<AdId> find_ad_by_name(const Topology& topo,
                                    std::string_view name);

}  // namespace idr

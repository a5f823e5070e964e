// Policy link-state database shared by the two link-state policy
// architectures (paper §5.3 LS hop-by-hop and §5.4 ORWG source routing).
//
// A Policy LSA is an AD's flooded advertisement: its live inter-AD
// adjacencies (with metrics) and its transit Policy Terms. The LSHH
// variant additionally publishes the origin's source route-selection
// criteria -- the consistency price of hop-by-hop link state the paper
// calls out in §5.3 (every AD must know the source's selection criteria
// to replicate its decision); ORWG deliberately omits them, keeping
// source policy private.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/synthesis.hpp"
#include "util/prng.hpp"
#include "policy/database.hpp"
#include "policy/term.hpp"
#include "topology/graph.hpp"
#include "util/dense_map.hpp"
#include "wire/codec.hpp"

namespace idr {

struct PolicyLsaAdjacency {
  AdId neighbor;
  std::uint32_t metric = 1;
  friend bool operator==(const PolicyLsaAdjacency&,
                         const PolicyLsaAdjacency&) = default;
};

struct PolicyLsa {
  AdId origin;
  std::uint32_t seq = 0;
  std::vector<PolicyLsaAdjacency> adjacencies;
  std::vector<PolicyTerm> terms;

  // Published source route-selection criteria (LSHH only).
  bool has_source_policy = false;
  std::vector<AdId> avoid;
  std::uint32_t max_hops = 32;
  bool prefer_min_cost = true;

  // Hierarchical (paper-scale) mode: stub ADs attached to this transit
  // origin. Stubs originate no LSA of their own; the flooded database
  // stays O(transit ADs) and stub reachability rides on the attachment
  // listing (empty in flat mode).
  std::vector<AdId> attached_stubs;

  // Origin authentication tag (paper §2.3: "the level of assurance
  // provided by the mechanisms will affect greatly the kind of policies
  // that ADs express"; security itself is cited to Estrin & Tsudik).
  // Zero when authentication is off. The tag is a toy MAC -- a keyed
  // hash over the LSA content -- standing in for a real one; what we
  // reproduce is the architectural effect, not the cryptography.
  std::uint64_t auth = 0;

  void encode(wire::Writer& w) const;
  static std::optional<PolicyLsa> decode(wire::Reader& r);
  [[nodiscard]] std::size_t encoded_size() const;
  // The size of an LSA whose lists are all empty: origin, seq, three
  // counts, the source-policy flag and auth.
  static constexpr std::size_t kMinEncodedSize = 23;
};

// Keyed tag over the LSA's content (auth field excluded).
std::uint64_t lsa_auth_tag(const PolicyLsa& lsa, std::uint64_t key);

class PolicyLsdb {
 public:
  // Inserts if newer than the stored LSA for the origin; returns whether
  // the database changed (callers flood exactly when it did).
  bool insert(PolicyLsa lsa);

  [[nodiscard]] const PolicyLsa* get(AdId origin) const;
  [[nodiscard]] std::size_t size() const noexcept { return lsas_.size(); }
  [[nodiscard]] std::size_t total_terms() const noexcept;
  [[nodiscard]] std::uint64_t version() const noexcept { return version_; }
  // Bumped only when an accepted LSA is its origin's first or lists
  // different attached stubs: what a stub-attachment index is built from.
  [[nodiscard]] std::uint64_t attachments_version() const noexcept {
    return attachments_version_;
  }

  // The adjacencies of `origin`'s LSA that are confirmed -- the neighbor's
  // own LSA lists `origin` back -- in the order the LSA lists them; empty
  // when `origin` has no LSA. Read from an index rebuilt on the first
  // read after version() moves; the span is valid until the next insert.
  [[nodiscard]] std::span<const PolicyLsaAdjacency> confirmed_adjacencies(
      AdId origin) const;
  // Times the confirmed-adjacency index was (re)built.
  [[nodiscard]] std::uint64_t adjacency_builds() const noexcept {
    return adjacency_index_ ? adjacency_index_->builds : 0;
  }

  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const auto [origin, lsa] : lsas_) {
      (void)origin;
      fn(lsa);
    }
  }

 private:
  // Every LSA's confirmed adjacencies as one CSR: LSA i (in lsas_'s
  // insertion order, which inserts never reorder) owns
  // adjacencies[offsets[i], offsets[i + 1]).
  struct AdjacencyIndex {
    std::uint64_t version = ~0ull;  // version_ it was built at
    std::uint64_t builds = 0;
    std::vector<std::uint32_t> offsets;
    std::vector<PolicyLsaAdjacency> adjacencies;
  };

  void build_adjacency_index() const;

  DenseMap<std::uint32_t, PolicyLsa> lsas_;
  std::uint64_t version_ = 0;  // bumped on every accepted insert
  std::uint64_t attachments_version_ = 0;
  // Behind a pointer: only a database that is read gets one, so the
  // empty databases of hierarchical stubs stay their size.
  mutable std::unique_ptr<AdjacencyIndex> adjacency_index_;
};

// SynthesisView over a PolicyLsdb. A link is usable only if both
// endpoints currently advertise it (bidirectional check), and only
// between ADs below `ad_count`: LSA ids come off the wire, and one past
// the topology names no AD. Transit permission comes from the
// advertised Policy Terms -- unless a
// `registry` is supplied, in which case transit permission is taken
// from that configured PolicySet instead of from what the origin
// *claims* in its LSA. The registry stands in for out-of-band policy
// registration (the paper's §2.3 assurance spectrum): it is the
// defense that stops a route-leaking AD from widening its own transit
// policy simply by lying in its advertisement.
class LsdbView final : public SynthesisView {
 public:
  explicit LsdbView(const PolicyLsdb& db, std::size_t ad_count,
                    const PolicySet* registry = nullptr)
      : db_(db), ad_count_(ad_count), registry_(registry) {}

  [[nodiscard]] std::size_t ad_count() const override { return ad_count_; }
  void for_each_neighbor(
      AdId ad, const std::function<void(AdId, std::uint32_t)>& fn)
      const override;
  [[nodiscard]] std::optional<std::uint32_t> transit_cost(
      AdId ad, const FlowSpec& flow, AdId prev, AdId next) const override;

 private:
  const PolicyLsdb& db_;
  std::size_t ad_count_;
  const PolicySet* registry_ = nullptr;
};

}  // namespace idr

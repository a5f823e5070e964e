// Link-state control plane shared by Table 1's link-state row: LS
// hop-by-hop (paper §5.3) and ORWG source routing (§5.4). Both flood the
// same Policy LSAs into the same database and differ only in where the
// route is decided, which is all a subclass adds.
//
// This base owns the LSDB and the node's own sequence number; origination
// with the identical-LSA skip and the origination hold-down;
// graceful-restart adjacency retention and the post-grace
// re-examination; origin signing, the auth check and victim-LSA forgery;
// sequence fight-back and the stale-copy reply; transit-scoped flooding
// and DB sync to a neighbor that comes back; periodic refresh; and the
// hierarchical stub-attachment index with a stub's parent choice.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "policy/database.hpp"
#include "proto/common/node.hpp"
#include "proto/orwg/lsdb.hpp"

namespace idr {

// The knobs the link-state base reads; LshhConfig and OrwgConfig extend
// it with what their design point adds.
struct PolicyLsConfig {
  // Origin-authentication keys, indexed by AdId (nullptr = auth off).
  // With auth on, every received LSA's toy MAC is verified against the
  // *origin's* key: a forged LSA signed by the liar's own key -- or a
  // re-flooded LSA whose content was tampered with in transit -- is
  // rejected and counted (lsas_rejected_auth + note_defense_rejection).
  const std::vector<std::uint64_t>* lsa_keys = nullptr;
  // Paper-scale hierarchical mode (§2: ~1e5 ADs, ~1e2 transit ADs): only
  // transit ADs originate LSAs (listing their attached stubs), floods and
  // DB syncs skip stub neighbors, and a stub rides on its lowest-id live
  // transit neighbor. The database stays O(transit ADs) instead of
  // O(all ADs).
  bool hierarchical = false;
  // Hold-down for link-change-triggered re-origination (0 = immediate,
  // the historical behavior). Link transitions within the window
  // coalesce into at most one origination, and a window that ends with
  // LSA content identical to the database copy (the link flapped down
  // and back) re-floods nothing at all -- the re-flood scoping that
  // keeps a flapping access link from re-flooding the transit core per
  // transition. Periodic refresh bypasses this (it must bump seq).
  double link_holddown_ms = 0.0;
  // Re-originate our LSA every periodic_refresh_ms (0 disables). The
  // fresh sequence number re-floods network-wide, repairing any database
  // hole a lost or corrupted flood left behind.
  double periodic_refresh_ms = 0.0;
};

class PolicyLsNode : public ProtoNode {
 public:
  void start() override;
  void on_message(AdId from, std::span<const std::uint8_t> bytes) override;
  void on_link_change(AdId neighbor, bool up) override;

  [[nodiscard]] const PolicyLsdb& lsdb() const noexcept { return lsdb_; }
  [[nodiscard]] std::uint64_t lsas_rejected_auth() const noexcept {
    return lsas_rejected_auth_;
  }
  [[nodiscard]] std::uint64_t originations_suppressed() const noexcept {
    return originations_suppressed_;
  }
  // GR accounting: adjacency retentions entered on a neighbor crash resp.
  // database resyncs pushed to a recovered neighbor.
  [[nodiscard]] std::uint64_t gr_retained() const noexcept {
    return gr_retained_;
  }
  [[nodiscard]] std::uint64_t gr_resyncs() const noexcept {
    return gr_resyncs_;
  }
  // Times the stub-attachment index was (re)built.
  [[nodiscard]] std::uint64_t attachment_builds() const noexcept {
    return attachment_builds_;
  }

  static constexpr std::uint8_t kMsgLsa = 1;

 protected:
  // `publishes_source_policy`: LSAs carry the origin's route-selection
  // criteria (LS-HbH) or keep them private (ORWG).
  PolicyLsNode(const PolicySet* policies, bool publishes_source_policy)
      : policies_(policies),
        publishes_source_policy_(publishes_source_policy) {}

  // The design point's config, which extends PolicyLsConfig.
  [[nodiscard]] virtual const PolicyLsConfig& ls_config() const noexcept = 0;
  // A PDU whose type is not kMsgLsa; the default counts and drops it.
  virtual void on_other_message(std::uint8_t type, AdId from,
                                wire::Reader& r);
  // Send `lsa` to every live neighbor except `except` -- transit
  // neighbors only in hierarchical mode, where stubs keep no database.
  virtual void flood_lsa(const PolicyLsa& lsa, AdId except, MsgClass cls);
  // Pass on an LSA the database just accepted from `from`.
  virtual void reflood(const PolicyLsa& lsa, AdId from) {
    flood_lsa(lsa, from, MsgClass::kUpdate);
  }

  // Verify + insert + (on acceptance) re-flood one received LSA.
  void accept_lsa(PolicyLsa lsa, AdId from);

  [[nodiscard]] const PolicySet& policies() const noexcept {
    return *policies_;
  }
  [[nodiscard]] bool is_transit() const { return topo().can_transit(self()); }
  // Transit AD a stub rides on: the lowest origin listing it as attached
  // (every transit AD computes the same owner from the same database,
  // which is what keeps hierarchical forwarding consistent). Transit ADs
  // own themselves; kNoAd when no origin lists `ad`.
  [[nodiscard]] AdId attachment(AdId ad);
  // A stub's next hop toward `dst`: `dst` itself when adjacent, else its
  // parent, the lowest-id live transit neighbor (the same deterministic
  // choice every other AD derives from the attachment rule).
  [[nodiscard]] std::optional<AdId> stub_next_hop(AdId dst) const;

 private:
  void originate_lsa(MsgClass cls = MsgClass::kUpdate);
  void originate_if_changed();
  // Our live adjacencies as our LSA lists them.
  void describe_links(std::vector<PolicyLsaAdjacency>& adjacencies,
                      std::vector<AdId>& stubs) const;
  void forge_victim_lsa();
  void sign_lsa(PolicyLsa& lsa) const;
  void send_lsa(AdId to, const PolicyLsa& lsa);
  void schedule_refresh();

  const PolicySet* policies_;
  PolicyLsdb lsdb_;
  std::uint32_t my_seq_ = 0;
  const bool publishes_source_policy_;
  bool holddown_scheduled_ = false;  // a hold-down window is already open
  std::uint64_t lsas_rejected_auth_ = 0;
  std::uint64_t originations_suppressed_ = 0;
  std::uint64_t gr_retained_ = 0;
  std::uint64_t gr_resyncs_ = 0;
  // Stub -> owning transit AD (hierarchical mode), indexed by AdId over
  // the topology (AdId::kInvalid: no LSA lists the AD), rebuilt lazily
  // when the database's attachment listings change.
  std::vector<std::uint32_t> attach_;
  std::uint64_t attach_version_ = ~0ull;
  std::uint64_t attachment_builds_ = 0;
};

}  // namespace idr

// Message and byte accounting. All overhead numbers reported by the
// benchmarks come from these counters, fed by real encoded PDU sizes.
#pragma once

#include <cstdint>

namespace idr {

struct Counters {
  std::uint64_t msgs_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t msgs_delivered = 0;
  std::uint64_t msgs_dropped = 0;  // sent over a down link
  // Adversarial-fault accounting (receiver side): frames mangled,
  // duplicated, or delayed out of order by the network fault model, and
  // PDUs the receiving protocol parsed, rejected, and dropped instead of
  // aborting on.
  std::uint64_t msgs_corrupted = 0;
  std::uint64_t msgs_duplicated = 0;
  std::uint64_t msgs_reordered = 0;
  std::uint64_t malformed_dropped = 0;
  // Frames the fault model lost in flight (also in msgs_dropped).
  std::uint64_t msgs_lost = 0;
  // Control-plane advertisements a protocol's Byzantine defense rejected
  // (or clamped away): forged origins, leaked routes, infeasible shapes,
  // bad auth tags. Zero unless a defense toggle is armed.
  std::uint64_t defense_rejections = 0;

  Counters& operator+=(const Counters& other) noexcept {
    msgs_sent += other.msgs_sent;
    bytes_sent += other.bytes_sent;
    msgs_delivered += other.msgs_delivered;
    msgs_dropped += other.msgs_dropped;
    msgs_corrupted += other.msgs_corrupted;
    msgs_duplicated += other.msgs_duplicated;
    msgs_reordered += other.msgs_reordered;
    malformed_dropped += other.malformed_dropped;
    msgs_lost += other.msgs_lost;
    defense_rejections += other.defense_rejections;
    return *this;
  }
};

}  // namespace idr

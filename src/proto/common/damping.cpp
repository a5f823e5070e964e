#include "proto/common/damping.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

namespace idr {
namespace {

constexpr double kPenaltyPerFlap = 1'000.0;
constexpr double kSuppressThreshold = 2'000.0;
constexpr double kReuseThreshold = 750.0;
constexpr double kMaxPenalty = 8'000.0;

}  // namespace

SimTime max_suppression_ms(const DampingConfig& config) {
  return config.half_life_ms * std::log2(kMaxPenalty / kReuseThreshold);
}

double FlapDamper::decayed(const RouteState& s, SimTime now) const {
  if (now <= s.updated_at) return s.penalty;
  const double halves = (now - s.updated_at) / config_.half_life_ms;
  return s.penalty * std::exp2(-halves);
}

SimTime FlapDamper::release_delay(const RouteState& s, SimTime now) const {
  const double penalty = decayed(s, now);
  if (penalty <= kReuseThreshold) return 0.0;
  return config_.half_life_ms * std::log2(penalty / kReuseThreshold);
}

bool FlapDamper::note_flap(std::uint64_t key, SimTime now) {
  if (!config_.enabled) return false;
  ++stats_.flaps;
  RouteState& s = routes_[key];
  s.penalty = std::min(decayed(s, now) + kPenaltyPerFlap, kMaxPenalty);
  s.updated_at = now;
  if (!s.suppressed && s.penalty >= kSuppressThreshold) {
    s.suppressed = true;
    s.suppressed_since = now;
    ++stats_.suppress_events;
    return true;
  }
  return false;
}

bool FlapDamper::suppressed(std::uint64_t key, SimTime now) {
  if (!config_.enabled) return false;
  RouteState* s = routes_.find(key);
  if (!s) return false;
  if (!s->suppressed) return false;
  if (decayed(*s, now) <= kReuseThreshold) {
    s->suppressed = false;
    ++stats_.reuse_events;
    stats_.suppressed_ms += now - s->suppressed_since;
    return false;
  }
  return true;
}

bool FlapDamper::would_suppress(std::uint64_t key, SimTime now) const {
  if (!config_.enabled) return false;
  const RouteState* s = routes_.find(key);
  return s && s->suppressed && decayed(*s, now) > kReuseThreshold;
}

SimTime FlapDamper::next_release_eta(SimTime now) const {
  SimTime eta = -1.0;
  for (const auto [key, s] : routes_) {
    (void)key;
    if (!s.suppressed) continue;
    const SimTime t = now + release_delay(s, now);
    if (eta < 0.0 || t < eta) eta = t;
  }
  return eta;
}

std::size_t FlapDamper::release_due(SimTime now) {
  std::vector<std::uint64_t> keys;
  for (const auto [key, s] : routes_) {
    if (s.suppressed) keys.push_back(key);
  }
  std::size_t released = 0;
  for (const std::uint64_t key : keys) {
    if (!suppressed(key, now)) ++released;
  }
  return released;
}

std::size_t FlapDamper::suppressed_count(SimTime now) {
  std::size_t n = 0;
  // Walk a key snapshot: suppressed() may release entries, and DenseMap
  // iteration must not observe concurrent state rewrites mid-walk.
  std::vector<std::uint64_t> keys;
  keys.reserve(routes_.size());
  for (const auto [key, s] : routes_) {
    (void)s;
    keys.push_back(key);
  }
  for (const std::uint64_t key : keys) {
    if (suppressed(key, now)) ++n;
  }
  return n;
}

}  // namespace idr

// Cross-commit behaviour pins. The determinism checks elsewhere compare
// two runs of one binary, so a refactor that changes behaviour
// identically in both runs slips past them. These tables hold numbers
// recorded on commit 8102046 instead: a change that keeps behaviour
// byte-identical keeps every pin, and one that changes behaviour on
// purpose updates the pins and says why in CHANGES.md. A failing check
// prints the actual value in the table's own syntax.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string_view>

namespace idr {

// One chaos run: counter fingerprint, control messages sent, and the
// transient / persistent invariant-violation counts.
struct RunPin {
  std::uint64_t fingerprint = 0;
  std::uint64_t msgs = 0;
  std::uint64_t transient = 0;
  std::uint64_t persistent = 0;
  friend bool operator==(const RunPin&, const RunPin&) = default;
};

inline std::ostream& operator<<(std::ostream& os, const RunPin& pin) {
  return os << "{0x" << std::hex << pin.fingerprint << std::dec << "ull, "
            << pin.msgs << ", " << pin.transient << ", " << pin.persistent
            << "}";
}

// One simtest replay of one design point: counter fingerprint and DES
// events processed.
struct ReplayPin {
  std::uint64_t fingerprint = 0;
  std::uint64_t events = 0;
  friend bool operator==(const ReplayPin&, const ReplayPin&) = default;
};

inline std::ostream& operator<<(std::ostream& os, const ReplayPin& pin) {
  return os << "{0x" << std::hex << pin.fingerprint << std::dec << "ull, "
            << pin.events << "}";
}

// A 64-bit digest of some text (FNV-1a), printed as a hex literal.
struct HashPin {
  std::uint64_t hash = 0;
  friend bool operator==(const HashPin&, const HashPin&) = default;
};

inline std::ostream& operator<<(std::ostream& os, const HashPin& pin) {
  return os << "0x" << std::hex << pin.hash << std::dec << "ull";
}

// `from` continues an earlier digest, so a long stream can be folded a
// piece at a time.
inline HashPin fnv1a(std::string_view text,
                     HashPin from = {0xcbf29ce484222325ULL}) {
  std::uint64_t h = from.hash;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return {h};
}

// One shrinker run: the minimized case's size and the work it took.
struct ShrinkPin {
  std::size_t ads = 0;
  std::size_t flows = 0;
  std::size_t events = 0;
  std::size_t checks = 0;
  std::size_t rounds = 0;
  friend bool operator==(const ShrinkPin&, const ShrinkPin&) = default;
};

inline std::ostream& operator<<(std::ostream& os, const ShrinkPin& pin) {
  return os << "{" << pin.ads << ", " << pin.flows << ", " << pin.events
            << ", " << pin.checks << ", " << pin.rounds << "}";
}

// Works for ChaosResult and ScaleChaosResult alike.
template <typename Result>
void expect_pinned(const Result& result, const RunPin& pin) {
  const RunPin got{result.counter_fingerprint, result.totals.msgs_sent,
                   result.invariants.transient_violations(),
                   result.invariants.persistent_violations()};
  EXPECT_EQ(got, pin);
}

}  // namespace idr

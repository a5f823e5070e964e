#include <gtest/gtest.h>

#include <concepts>
#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <type_traits>
#include <vector>

#include "policy/term.hpp"
#include "proto/idrp/idrp_node.hpp"
#include "proto/ls/ls_node.hpp"
#include "proto/orwg/lsdb.hpp"
#include "util/prng.hpp"
#include "wire/codec.hpp"
#include "pins.hpp"

namespace idr {
namespace {

// --- frames pinned across commits ---------------------------------------
// One frame of every PDU shape that carries an AD list. The FNV-1a of each
// encoding is pinned below (recorded on commit ee258ed), so a change to how
// lists are coded must keep the wire bytes as they were.

template <typename Pdu>
std::vector<std::uint8_t> encode(const Pdu& pdu) {
  wire::Writer w;
  pdu.encode(w);
  return w.take();
}

HashPin frame_hash(const std::vector<std::uint8_t>& bytes) {
  return fnv1a(std::string_view(reinterpret_cast<const char*>(bytes.data()),
                                bytes.size()));
}

AdSet members_set() {
  return AdSet::of({AdId{7}, AdId{3}, AdId{0xfffffffe}, AdId{3}, AdId{0}});
}

IdrpRoute four_hop_route() {
  IdrpRoute route;
  route.dst = AdId{9};
  route.path = {AdId{1}, AdId{4}, AdId{6}, AdId{9}};
  route.attrs.sources = AdSet::of({AdId{0}, AdId{2}, AdId{5}});
  route.attrs.qos_mask = 0x1;
  route.attrs.uci_mask = 0x6;
  route.attrs.hour_mask = hour_window_mask(8, 18);
  route.attrs.cost = 6;
  return route;
}

std::vector<AdId> stub_ids(std::size_t n) {
  std::vector<AdId> stubs;
  for (std::size_t i = 0; i < n; ++i) {
    stubs.push_back(AdId{static_cast<std::uint32_t>(1000 + 3 * i)});
  }
  return stubs;
}

PolicyLsa full_lsa() {
  PolicyLsa lsa;
  lsa.origin = AdId{2};
  lsa.seq = 3;
  lsa.adjacencies = {{AdId{4}, 10}, {AdId{5}, 20}};
  PolicyTerm term = open_transit_term(AdId{2}, 17, 5);
  term.sources = AdSet::of({AdId{1}, AdId{8}});
  term.next_hops = AdSet::of({AdId{4}});
  term.hour_begin = 22;
  term.hour_end = 4;
  lsa.terms.push_back(term);
  lsa.has_source_policy = true;
  lsa.avoid = {AdId{8}, AdId{11}, AdId{12}};
  lsa.max_hops = 12;
  lsa.prefer_min_cost = false;
  lsa.attached_stubs = stub_ids(1'000);
  lsa.auth = 0x0123456789abcdefULL;
  return lsa;
}

PolicyLsa widest_lsa() {
  PolicyLsa lsa;
  lsa.origin = AdId{77};
  lsa.seq = 1;
  lsa.attached_stubs = stub_ids(0xffff);
  return lsa;
}

TEST(WirePins, ListCarryingFramesAreUnchanged) {
  EXPECT_EQ(frame_hash(encode(AdSet::any())), HashPin{0xaf63bc4c8601b62cull});
  EXPECT_EQ(frame_hash(encode(AdSet::none())), HashPin{0xd94d12186c0f2fb7ull});
  EXPECT_EQ(frame_hash(encode(members_set())), HashPin{0xf485f2484aaf3090ull});
  EXPECT_EQ(frame_hash(encode(four_hop_route())), HashPin{0xb2733f99f00798cbull});
  EXPECT_EQ(frame_hash(encode(full_lsa())), HashPin{0xb62c3f543f545de0ull});
  EXPECT_EQ(frame_hash(encode(widest_lsa())), HashPin{0xc2db237a06cd1d4bull});
}

// Every strict prefix of the frame fails to decode (the decoder says so or
// the reader failed), and the whole frame decodes back to what was encoded.
template <typename Pdu>
void expect_frame_boundaries(const Pdu& pdu) {
  const std::vector<std::uint8_t> bytes = encode(pdu);
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    wire::Reader r(std::span(bytes.data(), len));
    const std::optional<Pdu> decoded{Pdu::decode(r)};
    EXPECT_TRUE(!decoded || !r.ok()) << "prefix of " << len << " bytes";
  }
  wire::Reader r(bytes);
  const std::optional<Pdu> decoded{Pdu::decode(r)};
  ASSERT_TRUE(decoded && r.done());
  EXPECT_EQ(encode(*decoded), bytes);
  if constexpr (std::equality_comparable<Pdu>) {
    EXPECT_EQ(*decoded, pdu);
  }
  if constexpr (!std::is_same_v<Pdu, IdrpRoute>) {
    EXPECT_EQ(pdu.encoded_size(), bytes.size());
  }
}

TEST(WirePins, PinnedFramesFailOnEveryPrefixAndRoundTrip) {
  expect_frame_boundaries(AdSet::any());
  expect_frame_boundaries(AdSet::none());
  expect_frame_boundaries(members_set());
  expect_frame_boundaries(full_lsa().terms.front());
  expect_frame_boundaries(four_hop_route());
  expect_frame_boundaries(full_lsa());

  // IdrpRoute and PolicyLsa have no operator==: compare their fields.
  const std::vector<std::uint8_t> route_bytes = encode(four_hop_route());
  wire::Reader route_r(route_bytes);
  const auto route = IdrpRoute::decode(route_r);
  ASSERT_TRUE(route.has_value());
  EXPECT_EQ(route->path, four_hop_route().path);
  EXPECT_EQ(route->attrs, four_hop_route().attrs);
  for (const PolicyLsa& lsa : {full_lsa(), widest_lsa()}) {
    const std::vector<std::uint8_t> bytes = encode(lsa);
    wire::Reader lsa_r(bytes);
    const auto decoded = PolicyLsa::decode(lsa_r);
    ASSERT_TRUE(decoded.has_value() && lsa_r.done());
    EXPECT_EQ(decoded->avoid, lsa.avoid);
    EXPECT_EQ(decoded->attached_stubs, lsa.attached_stubs);
    EXPECT_EQ(decoded->attached_stubs.capacity(), lsa.attached_stubs.size());
    EXPECT_EQ(decoded->terms, lsa.terms);
    EXPECT_EQ(decoded->adjacencies, lsa.adjacencies);
    EXPECT_EQ(lsa.encoded_size(), bytes.size());
  }
}

TEST(Codec, ScalarRoundTrip) {
  wire::Writer w;
  w.u8(0xab);
  w.u16(0xbeef);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefULL);
  wire::Reader r(w.bytes());
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0xbeef);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_TRUE(r.done());
}

TEST(Codec, BigEndianOnTheWire) {
  wire::Writer w;
  w.u32(0x01020304);
  ASSERT_EQ(w.size(), 4u);
  EXPECT_EQ(w.bytes()[0], 0x01);
  EXPECT_EQ(w.bytes()[3], 0x04);
}

TEST(Codec, StringRoundTrip) {
  wire::Writer w;
  w.str("hello inter-AD world");
  w.str("");
  wire::Reader r(w.bytes());
  EXPECT_EQ(r.str(), "hello inter-AD world");
  EXPECT_EQ(r.str(), "");
  EXPECT_TRUE(r.done());
}

TEST(Codec, ListRoundTrip) {
  const std::vector<std::uint32_t> values{0, 1, 0xffffffff, 42};
  wire::Writer w;
  w.list(values);
  w.list(std::vector<AdId>{AdId{7}, AdId{0x01020304}});
  ASSERT_EQ(w.size(), 2 + 4 * 4 + 2 + 2 * 4u);
  EXPECT_EQ(w.bytes()[24], 0x01);  // big-endian words
  EXPECT_EQ(w.bytes()[27], 0x04);
  wire::Reader r(w.bytes());
  std::vector<std::uint32_t> words;
  r.list(words);
  EXPECT_EQ(words, values);
  EXPECT_EQ(words.capacity(), values.size());
  std::vector<AdId> ads{AdId{1}, AdId{2}, AdId{3}};  // replaced, not appended
  r.list(ads);
  EXPECT_EQ(ads, (std::vector<AdId>{AdId{7}, AdId{0x01020304}}));
  EXPECT_TRUE(r.done());
}

TEST(Codec, TruncatedReadIsStickyFailure) {
  wire::Writer w;
  w.u16(7);
  wire::Reader r(w.bytes());
  EXPECT_EQ(r.u16(), 7);
  EXPECT_EQ(r.u32(), 0u);  // past end
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.u8(), 0u);  // still failed
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(Codec, TruncatedListFails) {
  wire::Writer w;
  w.u16(10);  // claims 10 entries, provides 3
  w.u32(1);
  w.u32(2);
  w.u32(3);
  wire::Reader r(w.bytes());
  std::vector<AdId> out{AdId{5}, AdId{6}};  // held elements before
  r.list(out);
  EXPECT_TRUE(out.empty());
  EXPECT_FALSE(r.ok());
  // Sticky: the words the list did not consume stay unreadable.
  EXPECT_EQ(r.u32(), 0u);
  std::vector<std::uint32_t> more{9};
  r.list(more);
  EXPECT_TRUE(more.empty());
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(CodecDeathTest, ListBeyondU16CountAborts) {
  PolicyLsa lsa = widest_lsa();
  lsa.attached_stubs.push_back(AdId{1});  // 0x10000 stubs
  EXPECT_DEATH((void)encode(lsa), "list too long");
  const std::vector<std::uint32_t> words(0x10000);
  wire::Writer w;
  EXPECT_DEATH(w.list(words), "list too long");
}

TEST(Codec, TruncatedStringFails) {
  wire::Writer w;
  w.u16(100);  // claims 100 bytes
  w.u8('x');
  wire::Reader r(w.bytes());
  EXPECT_EQ(r.str(), "");
  EXPECT_FALSE(r.ok());
}

TEST(Codec, DoneRequiresFullConsumption) {
  wire::Writer w;
  w.u32(1);
  w.u32(2);
  wire::Reader r(w.bytes());
  r.u32();
  EXPECT_TRUE(r.ok());
  EXPECT_FALSE(r.done());
  r.u32();
  EXPECT_TRUE(r.done());
}

TEST(PduRoundTrip, PolicyTerm) {
  PolicyTerm t;
  t.id = 17;
  t.owner = AdId{3};
  t.sources = AdSet::of({AdId{1}, AdId{2}, AdId{9}});
  t.dests = AdSet::any();
  t.prev_hops = AdSet::of({AdId{4}});
  t.next_hops = AdSet::none();
  t.qos_mask = 0x3;
  t.uci_mask = 0x5;
  t.hour_begin = 22;
  t.hour_end = 4;
  t.cost = 12;

  wire::Writer w;
  t.encode(w);
  wire::Reader r(w.bytes());
  const auto decoded = PolicyTerm::decode(r);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, t);
  EXPECT_TRUE(r.done());
}

TEST(PduRoundTrip, PolicyTermRejectsBadHours) {
  PolicyTerm t;
  t.owner = AdId{1};
  t.hour_begin = 99;
  wire::Writer w;
  t.encode(w);
  wire::Reader r(w.bytes());
  EXPECT_FALSE(PolicyTerm::decode(r).has_value());
}

TEST(PduRoundTrip, Lsa) {
  Lsa lsa;
  lsa.origin = AdId{5};
  lsa.seq = 99;
  LsAdjacency adj;
  adj.neighbor = AdId{7};
  adj.metric = {1, 2, 3, 4};
  lsa.adjacencies.push_back(adj);

  wire::Writer w;
  lsa.encode(w);
  wire::Reader r(w.bytes());
  const auto decoded = Lsa::decode(r);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->origin, lsa.origin);
  EXPECT_EQ(decoded->seq, lsa.seq);
  ASSERT_EQ(decoded->adjacencies.size(), 1u);
  EXPECT_EQ(decoded->adjacencies[0].neighbor, AdId{7});
  EXPECT_EQ(decoded->adjacencies[0].metric, adj.metric);
}

TEST(PduRoundTrip, PolicyLsaWithSourcePolicy) {
  PolicyLsa lsa;
  lsa.origin = AdId{2};
  lsa.seq = 3;
  lsa.adjacencies.push_back(PolicyLsaAdjacency{AdId{4}, 10});
  lsa.terms.push_back(open_transit_term(AdId{2}, 0, 5));
  lsa.has_source_policy = true;
  lsa.avoid = {AdId{8}};
  lsa.max_hops = 12;
  lsa.prefer_min_cost = false;

  wire::Writer w;
  lsa.encode(w);
  wire::Reader r(w.bytes());
  const auto decoded = PolicyLsa::decode(r);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->origin, lsa.origin);
  EXPECT_EQ(decoded->terms.size(), 1u);
  EXPECT_EQ(decoded->terms[0].cost, 5u);
  EXPECT_TRUE(decoded->has_source_policy);
  ASSERT_EQ(decoded->avoid.size(), 1u);
  EXPECT_EQ(decoded->avoid[0], AdId{8});
  EXPECT_EQ(decoded->max_hops, 12u);
  EXPECT_FALSE(decoded->prefer_min_cost);
}

TEST(PduRoundTrip, IdrpRoute) {
  IdrpRoute route;
  route.dst = AdId{9};
  route.path = {AdId{1}, AdId{4}, AdId{9}};
  route.attrs.sources = AdSet::of({AdId{0}, AdId{2}});
  route.attrs.qos_mask = 0x1;
  route.attrs.uci_mask = 0x7;
  route.attrs.hour_mask = hour_window_mask(8, 18);
  route.attrs.cost = 6;

  wire::Writer w;
  route.encode(w);
  wire::Reader r(w.bytes());
  const auto decoded = IdrpRoute::decode(r);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->dst, route.dst);
  EXPECT_EQ(decoded->path, route.path);
  EXPECT_EQ(decoded->attrs, route.attrs);
}

// Fuzz-ish robustness: decoding random bytes must never crash and must
// signal failure through Reader state rather than garbage acceptance of
// truncated input.
TEST(DecoderRobustness, RandomBytesNeverCrash) {
  Prng prng(0xf22);
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<std::uint8_t> junk(prng.below(64));
    for (auto& b : junk) b = static_cast<std::uint8_t>(prng.below(256));
    {
      wire::Reader r(junk);
      (void)PolicyTerm::decode(r);
    }
    {
      wire::Reader r(junk);
      (void)PolicyLsa::decode(r);
    }
    {
      wire::Reader r(junk);
      (void)IdrpRoute::decode(r);
    }
    {
      wire::Reader r(junk);
      (void)Lsa::decode(r);
    }
  }
  SUCCEED();
}

// Truncation property: every strict prefix of a valid encoding must fail
// to decode (no silent acceptance of cut-off PDUs).
TEST(DecoderRobustness, AllPrefixesOfPolicyTermFail) {
  PolicyTerm t = open_transit_term(AdId{1}, 2, 3);
  t.sources = AdSet::of({AdId{5}, AdId{6}});
  wire::Writer w;
  t.encode(w);
  const auto& bytes = w.bytes();
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    wire::Reader r(std::span(bytes.data(), len));
    const auto decoded = PolicyTerm::decode(r);
    // Either the decode failed, or it consumed less than the prefix
    // (which strict framing would reject via done()).
    if (decoded.has_value()) {
      EXPECT_FALSE(r.ok() && r.remaining() == 0 && len == bytes.size());
    }
  }
  SUCCEED();
}

}  // namespace
}  // namespace idr

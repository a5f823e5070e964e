// The simulated inter-AD network: binds a Topology to per-AD protocol
// nodes and delivers encoded messages between adjacent ADs with link
// delay. Messages sent over a down link are dropped (counted). Link state
// changes are delivered to both endpoint nodes as local events -- exactly
// the information a real border gateway gets from its interface.
//
// Beyond the happy path, the network models the adversarial conditions of
// a real internet (paper §2.2: protocols must stay correct while the
// inter-AD topology changes underneath them):
//   * node crash + restart -- a crashed AD's node is destroyed (all soft
//     state lost) and re-created cold via a per-protocol factory;
//   * adversarial delivery faults -- per-frame probabilistic loss,
//     corruption (random bit flips), duplication, and reordering (extra
//     random delay), all deterministic in the seed and counted per AD;
//   * keepalive/hold-timer neighbor liveness in the Node substrate, so a
//     protocol detects a crashed or unreachable neighbor from silence
//     instead of the instantaneous on_link_change oracle (which can be
//     disabled entirely with set_link_notifications(false)).
//
// One ownership rule holds throughout: an event for AD `x` writes only
// `x`-indexed state, and every network-wide figure (message totals,
// overload stats, the last delivery time) is folded from per-AD state on
// read. A frame is keyed by its sender's stream but is the receiver's
// event, so delivery-time accounting is receiver-attributed, and every
// per-frame fault decision is drawn at send time from the sender's own
// PRNG stream. Mutations that span ADs -- crash/restart, grace
// deadlines, link state, quarantine -- are driver actions run as
// control-stream events (Engine::at). A sharded engine (shard.hpp) runs
// an AD's events on that AD's shard and control events between windows,
// so under this rule every feature here runs on every backend, with the
// sequential engine's results.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "proto/common/counters.hpp"
#include "sim/engine.hpp"
#include "topology/graph.hpp"
#include "util/prng.hpp"

namespace idr {

class Network;

// Immutable frame payload, shared between the sender's copy, duplicated
// deliveries, and every receiver of a broadcast -- one allocation per
// encoded PDU instead of one per (neighbor, copy).
using Payload = std::shared_ptr<const std::vector<std::uint8_t>>;

[[nodiscard]] inline Payload make_payload(std::vector<std::uint8_t> bytes) {
  return std::make_shared<const std::vector<std::uint8_t>>(std::move(bytes));
}

// --- Byzantine / misconfigured-AD fault model ------------------------
// Orthogonal to the delivery faults above: a misbehaving AD runs the
// protocol but lies in it (or silently eats traffic). The taxonomy maps
// the dominant real-world inter-domain failure modes onto the paper's
// four design points:
//   * kFalseOrigin -- hijack: claims to originate reachability for a
//     victim AD (metric-0 DV entry, path=[self] route, forged LSA) and
//     black-holes the victim's traffic it attracts;
//   * kRouteLeak -- re-advertises learned routes in violation of its own
//     transit policy (IDRP/LS term violation, ECMA down-then-up rule);
//   * kTamper -- mutates path attributes in transit or at origin (IDRP
//     path shortening, DV metric zeroing, LS adjacency stripping on
//     re-flood);
//   * kBlackHole -- advertises honestly but drops all transit traffic.
enum class Misbehavior : std::uint8_t {
  kNone = 0,
  kFalseOrigin = 1,
  kRouteLeak = 2,
  kTamper = 3,
  kBlackHole = 4,
};

[[nodiscard]] const char* to_string(Misbehavior m) noexcept;

// One misbehaving AD in a seeded schedule. Before start_ms the AD is
// honest; from start_ms on it misbehaves until quarantined (defended
// runs) or the end of the run.
struct ByzantineSpec {
  AdId ad;
  Misbehavior kind = Misbehavior::kNone;
  AdId victim;  // false-origin hijack target; invalid otherwise
  SimTime start_ms = 0.0;
};

// Adversarial delivery faults applied per frame, decided at send time
// from one seeded stream (so a run is reproducible from the seed alone).
struct FaultConfig {
  double loss_rate = 0.0;       // frame silently lost in flight
  double corrupt_rate = 0.0;    // random bit flips applied to the frame
  double duplicate_rate = 0.0;  // frame delivered twice
  double reorder_rate = 0.0;    // frame delayed by extra random latency
  double reorder_extra_ms = 5.0;  // max extra delay for a reordered frame
  // Fraction of corrupted frames that evade the modeled datagram checksum
  // and reach the receiving protocol's decoder; the rest are detected and
  // discarded at the interface. 1.0 = no checksum (every mangled frame is
  // the decoder's problem), 0.0 = a perfect checksum.
  double corrupt_deliver_fraction = 1.0;

  [[nodiscard]] bool any() const noexcept {
    return loss_rate > 0.0 || corrupt_rate > 0.0 || duplicate_rate > 0.0 ||
           reorder_rate > 0.0;
  }
};

// --- control-plane message classes + overload protection -------------
// Every frame carries a class; with overload protection enabled
// (OverloadConfig::queue_limit > 0) the receiving AD runs a bounded
// ingress queue serviced in strict priority order -- keepalives before
// withdrawals before updates before refreshes -- so under a restart
// storm session liveness and bad news survive while deferrable refresh
// traffic is shed. Tail-drop is deterministic: a full queue evicts the
// newest frame of the lowest-priority occupied class below the arrival
// (or the arrival itself when nothing less important is queued).
enum class MsgClass : std::uint8_t {
  kKeepalive = 0,   // session liveness: never starved
  kWithdrawal = 1,  // bad news: fast loop / black-hole repair
  kUpdate = 2,      // ordinary reachability updates
  kRefresh = 3,     // periodic full-state refresh: most deferrable
};
inline constexpr std::size_t kMsgClassCount = 4;
[[nodiscard]] const char* to_string(MsgClass c) noexcept;

struct OverloadConfig {
  // Max frames queued per receiving AD across all classes. 0 disables
  // overload protection entirely: frames dispatch at arrival, the
  // pre-existing (byte-identical) behavior.
  std::size_t queue_limit = 0;
  // Frames dispatched per service event, and the service period.
  static constexpr std::size_t kServiceBatch = 16;
  static constexpr SimTime kServiceIntervalMs = 0.5;

  [[nodiscard]] bool enabled() const noexcept { return queue_limit > 0; }
};

// Kept per receiving AD; Network::overload_stats folds them on read.
struct OverloadStats {
  std::uint64_t enqueued = 0;
  std::uint64_t served = 0;
  std::uint64_t dropped[kMsgClassCount] = {0, 0, 0, 0};  // by victim class
  std::size_t peak_depth = 0;       // high-water mark of any one AD's queue
  std::uint64_t cleared_on_crash = 0;

  [[nodiscard]] std::uint64_t dropped_total() const noexcept {
    std::uint64_t sum = 0;
    for (std::size_t c = 0; c < kMsgClassCount; ++c) sum += dropped[c];
    return sum;
  }
};

// --- graceful restart ------------------------------------------------
// With GR enabled a crash no longer hard-drops the AD: its pre-crash
// node survives as a frozen data-plane zombie for one grace window
// (forwarding_node() keeps resolving to it, so traffic keeps flowing
// over the stale FIB), while neighbors that learn of the crash retain
// the dead AD's routes as stale instead of withdrawing. If the control
// plane restarts within grace, the deadline event is a hitless handover
// to the resynced node; if not, it is the flush -- the zombie is
// destroyed and the AD finally looks hard-down to everyone.
struct GrConfig {
  bool enabled = false;
  SimTime grace_ms = 2000.0;
};

// Keepalive/hold-timer neighbor liveness (interval 0 disables). A node
// with keepalive enabled sends a one-byte keepalive to each neighbor
// every interval; any frame heard from a neighbor refreshes its hold
// timer. Silence for miss_threshold intervals declares the neighbor dead
// (delivered to the protocol as on_link_change(neighbor, false)); dead
// neighbors are re-probed with exponential backoff (the spacing doubles
// up to 8 intervals), and the first frame heard from one revives it
// (on_link_change(neighbor, true)).
struct KeepaliveConfig {
  SimTime interval_ms = 0.0;  // 0 disables keepalive entirely
  std::uint32_t miss_threshold = 3;
};

// A protocol entity running inside one AD (the paper's Route Server /
// policy gateway complex collapsed to one node per AD, matching the
// AD-level abstraction of §4.1).
class Node {
 public:
  virtual ~Node() = default;

  // The AD this node runs in (valid after attach).
  [[nodiscard]] AdId id() const noexcept { return self_; }

  // Called once after every AD's node is attached.
  virtual void start() {}

  // An encoded PDU arrived from adjacent AD `from`.
  virtual void on_message(AdId from, std::span<const std::uint8_t> bytes) = 0;

  // The link to adjacent AD `neighbor` changed state. Fired by the
  // network oracle (unless notifications are disabled) and by the node's
  // own keepalive machinery when a neighbor's hold timer expires/revives.
  virtual void on_link_change(AdId neighbor, bool up) {
    (void)neighbor;
    (void)up;
  }

  // Entry point the Network delivers through (non-virtual): refreshes the
  // sender's liveness, consumes keepalive frames, dispatches the rest to
  // on_message. `slot` is the sender's position in this node's adjacency
  // list (Topology::adjacency_slot), so liveness lookup is an array index.
  // `heard_at` is the frame's interface arrival time (< 0 = "now"): with
  // overload protection a frame can be serviced long after it arrived,
  // and liveness must be refreshed from arrival, not service, or a
  // queued stale frame would vouch for a neighbor that has since died.
  void deliver(AdId from, std::uint32_t slot,
               std::span<const std::uint8_t> bytes, SimTime heard_at = -1.0);

  // Turn on keepalive/hold-timer liveness for this node (callable any
  // time after attach). Chosen well clear of every protocol's small
  // message-type space so a keepalive never parses as a protocol PDU.
  static constexpr std::uint8_t kKeepaliveType = 0xF0;
  void enable_keepalive(const KeepaliveConfig& config);

  // False when keepalive has declared this neighbor dead, and -- with the
  // network's crash-notification oracle enabled -- when the neighbor's
  // node is crashed and out of grace (during a grace window a gracefully
  // restarting neighbor still counts as alive: that is the retention).
  [[nodiscard]] bool neighbor_alive(AdId neighbor) const;

 protected:
  friend class Network;

  // Schedule `fn` to run after delay_ms unless this node has been crashed
  // (or crashed and replaced) by then. Protocol timers MUST use this (or
  // re-resolve the node themselves): a plain engine callback capturing
  // `this` dangles when the node is crashed out from under it.
  void schedule_guarded(SimTime delay_ms, std::function<void()> fn);

  Network* net_ = nullptr;
  AdId self_;

 private:
  struct NeighborLiveness {
    SimTime last_heard = 0.0;
    bool alive = true;
    SimTime probe_interval_ms = 0.0;  // current (backed-off) probe spacing
    SimTime next_probe_at = 0.0;
    // When the hold timer last declared this neighbor dead; revival
    // requires a frame heard at or after this instant.
    SimTime declared_dead_at = -1.0;
  };

  void keepalive_tick();
  void schedule_keepalive_tick(SimTime delay_ms);
  void note_heard(AdId from, std::uint32_t slot, SimTime heard_at);

  KeepaliveConfig keepalive_;
  bool keepalive_enabled_ = false;
  // Indexed by adjacency slot (position in topo().neighbors(self_)); a
  // dense array because liveness refresh runs on every delivered frame.
  std::vector<NeighborLiveness> liveness_;
};

class Network {
 public:
  using NodeFactory = std::function<std::unique_ptr<Node>(AdId)>;

  Network(Engine& engine, Topology& topo);

  // Takes ownership; one node per AD, attached before start_all().
  void attach(AdId ad, std::unique_ptr<Node> node);
  void start_all();

  // Send encoded bytes from `from` to adjacent `to`. Returns false (and
  // counts a drop) if there is no live link. Delivery is delayed by the
  // link's delay plus per-message transmission time. `cls` only matters
  // with overload protection enabled: it picks the receiving AD's
  // ingress-queue priority.
  bool send(AdId from, AdId to, std::vector<std::uint8_t> bytes,
            MsgClass cls = MsgClass::kUpdate) {
    return send(from, to, make_payload(std::move(bytes)), cls);
  }
  // Shared-payload variant: broadcasts reuse one allocation across all
  // receivers (corruption faults copy-on-write the affected frame only).
  bool send(AdId from, AdId to, Payload payload,
            MsgClass cls = MsgClass::kUpdate);

  // --- overload protection -------------------------------------------
  // Bounded class-prioritized ingress queues on every AD (see MsgClass).
  // Default-off; enabling changes delivery timing, so differential
  // transcripts are only stable with it off.
  void set_overload(const OverloadConfig& config);
  // Every AD's queue stats folded: counts summed, peak_depth the max.
  [[nodiscard]] OverloadStats overload_stats() const;

  // Change a link's state and notify both endpoint nodes immediately
  // (unless notifications are disabled).
  void set_link_state(LinkId link, bool up);

  // Disable/enable the instantaneous link-state oracle. With
  // notifications off, protocols only learn about failures from their own
  // keepalive hold timers (or from data-plane errors).
  void set_link_notifications(bool enabled) noexcept {
    link_notifications_ = enabled;
  }

  // --- node crash / restart ------------------------------------------
  // Needed before restart(): how to build a cold node for an AD.
  void set_node_factory(NodeFactory factory) {
    node_factory_ = std::move(factory);
  }
  // Destroy the AD's node: all soft state is lost, in-flight frames to it
  // are dropped (counted), its pending timers become no-ops.
  void crash(AdId ad);
  // Re-create the AD's node cold via the factory and start() it. If a
  // default keepalive config was installed, the new node inherits it.
  void restart(AdId ad);
  [[nodiscard]] bool alive(AdId ad) const;
  [[nodiscard]] std::uint64_t crashes() const noexcept { return crashes_; }
  // ADs currently crashed (node destroyed, not yet restarted).
  [[nodiscard]] std::size_t down_count() const noexcept { return down_count_; }

  // Fire on_link_change(ad, up) at alive neighbors when `ad` crashes or
  // restarts -- the failure-detection oracle for node churn, mirroring
  // set_link_notifications for links. Default off (byte-identical).
  void set_crash_notifications(bool enabled) noexcept {
    crash_notifications_ = enabled;
  }
  [[nodiscard]] bool crash_notifications() const noexcept {
    return crash_notifications_;
  }

  // --- graceful restart ----------------------------------------------
  // The one GR switch: the protocols read it through gr().
  void set_graceful_restart(const GrConfig& config) { gr_ = config; }
  [[nodiscard]] const GrConfig& gr() const noexcept { return gr_; }
  // True while the AD's frozen pre-crash state is serving its grace
  // window (stays true through a restart until the handover deadline).
  [[nodiscard]] bool in_grace(AdId ad) const;
  [[nodiscard]] std::size_t in_grace_count() const noexcept {
    return in_grace_count_;
  }
  // Alive, or dead-but-in-grace: the set of ADs that can still forward.
  [[nodiscard]] bool usable(AdId ad) const { return alive(ad) || in_grace(ad); }
  // The node whose FIB answers forwarding queries for `ad`: the frozen
  // zombie during a grace window (even after the control plane has
  // restarted -- handover waits for the deadline), else the live node,
  // else null. Identical to node() when GR is off.
  [[nodiscard]] Node* forwarding_node(AdId ad);
  // Grace windows that expired with the AD still down (stale flush)
  // resp. ended with a restarted control plane (hitless handover).
  [[nodiscard]] std::uint64_t gr_flushes() const noexcept {
    return gr_flushes_;
  }
  [[nodiscard]] std::uint64_t gr_recoveries() const noexcept {
    return gr_recoveries_;
  }

  // Install keepalive on every attached node, and on every node restarted
  // from now on.
  void set_keepalive(const KeepaliveConfig& config);

  [[nodiscard]] Engine& engine() noexcept { return engine_; }
  [[nodiscard]] const Engine& engine() const noexcept { return engine_; }
  [[nodiscard]] Topology& topo() noexcept { return topo_; }
  [[nodiscard]] const Topology& topo() const noexcept { return topo_; }
  [[nodiscard]] Node* node(AdId ad);

  [[nodiscard]] const Counters& counters(AdId ad) const;
  // Network-wide totals, folded from the per-AD counters on read (so no
  // event ever writes a global aggregate; see the ownership rule on top).
  [[nodiscard]] Counters total() const;
  // Simulated time of the most recent protocol message delivery (folded
  // from the per-AD times); the convergence benchmarks read this after
  // draining the event queue.
  [[nodiscard]] SimTime last_delivery_time() const noexcept;
  void reset_counters();

  // A protocol parsed and rejected a malformed PDU instead of aborting.
  void note_malformed(AdId ad);

  // Bytes per kilobit-millisecond: serialization delay model. Messages
  // are delayed by link delay + size * per_byte_delay_ms.
  void set_per_byte_delay(double ms_per_byte) noexcept {
    per_byte_delay_ms_ = ms_per_byte;
  }

  // Full adversarial fault model (loss + corruption + duplication +
  // reordering), deterministic in the seed. Loss alone models the
  // unreliable datagram service the paper assumes ("sequencing and
  // reliability are left to the transport layer"); lost frames count in
  // Counters::msgs_lost.
  // Every per-frame decision is drawn at send time from the sender's own
  // PRNG stream (seeded from `seed` x sender AD), so the fault schedule
  // is a pure function of the seed -- independent of event interleaving,
  // backend, and shard count.
  void set_faults(const FaultConfig& faults, std::uint64_t seed);

  // Generation counter for an AD's node slot; bumped on crash so stale
  // timers scheduled by a destroyed node can detect they are orphaned.
  [[nodiscard]] std::uint64_t generation(AdId ad) const;

  // Invoked on every topology-churn event, tagged with its class: kLink
  // for a link up/down transition, kNode for a crash, restart, or
  // quarantine. The invariant monitor hooks this to time reconvergence
  // (with a per-class window) and separate transient from persistent
  // violations.
  enum class ChurnKind : std::uint8_t { kLink = 0, kNode = 1 };
  void set_churn_observer(std::function<void(ChurnKind)> fn) {
    churn_observer_ = std::move(fn);
  }

  // --- Byzantine / misconfigured ADs ---------------------------------
  // Install one misbehavior spec (at most one per AD; later wins).
  void set_misbehavior(const ByzantineSpec& spec);
  [[nodiscard]] const std::vector<ByzantineSpec>& byzantine_specs()
      const noexcept {
    return byz_specs_;
  }
  // The AD's configured kind, regardless of onset time (kNone if honest).
  [[nodiscard]] Misbehavior misbehavior_kind(AdId ad) const;
  [[nodiscard]] AdId misbehavior_victim(AdId ad) const;
  // The AD's kind iff its onset time has passed; kNone before onset.
  [[nodiscard]] Misbehavior active_misbehavior(AdId ad) const;
  [[nodiscard]] bool misbehaving(AdId ad) const {
    return active_misbehavior(ad) != Misbehavior::kNone;
  }
  [[nodiscard]] bool misbehaving_as(AdId ad, Misbehavior kind) const {
    return active_misbehavior(ad) == kind;
  }
  // Would `ad` drop a transit/terminal data packet destined for `dst`
  // right now? True for an active black hole (any dst) and for an active
  // false-origin hijacker (its victim's traffic). The forwarding-walk
  // probes consult this; control-plane frames are unaffected.
  [[nodiscard]] bool drops_traffic(AdId ad, AdId dst) const;

  // Data-plane conformance containment: isolate a detected misbehaving
  // AD. Its frames are dropped at every receiving interface, neighbors
  // see it as dead (keepalive revival is suppressed), and alive
  // neighbors get an immediate on_link_change(ad, false).
  void quarantine(AdId ad);
  [[nodiscard]] bool is_quarantined(AdId ad) const;

  // A protocol's Byzantine defense rejected (or clamped away) an
  // advertisement at `ad`.
  void note_defense_rejection(AdId ad);

 private:
  friend class Node;

  // Per-frame fault decisions, all made at send time as the sender's
  // event; the delivery event just acts on them receiver-side.
  struct FrameFaults {
    bool duplicate = false;  // this frame is the injected extra copy
    bool reordered = false;
    bool corrupted = false;
    bool checksum_caught = false;  // corrupted + the modeled checksum saw it
    bool lost = false;             // silently lost in flight
  };

  void deliver_frame(AdId from, AdId to, LinkId link, Payload payload,
                     double delay_ms, FrameFaults fx, MsgClass cls);
  void enqueue_ingress(AdId from, AdId to, LinkId link, Payload payload,
                       MsgClass cls);
  void service_ingress(AdId to);
  void end_grace(AdId ad);
  // Sender-stream PRNG; null when no fault/loss rate is configured.
  [[nodiscard]] Prng* fault_prng(AdId from) noexcept {
    return fault_prng_.empty() ? nullptr : &fault_prng_[from.v];
  }

  struct QueuedFrame {
    AdId from;
    LinkId link;
    Payload payload;
    SimTime arrival_ms = 0.0;
  };
  struct IngressQueue {
    std::deque<QueuedFrame> cls[kMsgClassCount];
    std::size_t depth = 0;
    bool service_scheduled = false;
    OverloadStats stats;
  };

  Engine& engine_;
  Topology& topo_;
  std::vector<std::unique_ptr<Node>> nodes_;  // indexed by AdId
  std::vector<std::uint64_t> generations_;    // indexed by AdId
  std::vector<Counters> counters_;            // indexed by AdId
  std::vector<SimTime> last_delivery_;        // indexed by receiving AdId
  double per_byte_delay_ms_ = 0.0;
  FaultConfig faults_;
  std::vector<Prng> fault_prng_;           // indexed by sender AdId
  std::uint64_t crashes_ = 0;
  std::size_t down_count_ = 0;
  bool link_notifications_ = true;
  bool crash_notifications_ = false;
  OverloadConfig overload_;
  std::vector<IngressQueue> ingress_;  // indexed by AdId (receiver)
  GrConfig gr_;
  // GR zombies: the frozen pre-crash node, non-null iff in grace.
  std::vector<std::unique_ptr<Node>> frozen_;  // indexed by AdId
  std::vector<SimTime> grace_deadline_;        // indexed by AdId
  std::size_t in_grace_count_ = 0;
  std::uint64_t gr_flushes_ = 0;
  std::uint64_t gr_recoveries_ = 0;
  NodeFactory node_factory_;
  KeepaliveConfig default_keepalive_;
  bool keepalive_default_set_ = false;
  std::function<void(ChurnKind)> churn_observer_;
  std::vector<ByzantineSpec> byz_specs_;
  std::vector<ByzantineSpec> byz_by_ad_;  // indexed by AdId; kNone = honest
  std::vector<std::uint8_t> quarantined_;  // indexed by AdId
};

}  // namespace idr

#include "proto/common/policy_dv_node.hpp"

#include <algorithm>

namespace idr {

wire::Writer& PolicyDvNode::update_writer() {
  thread_local wire::Writer writer;
  writer.clear();
  return writer;
}

void PolicyDvNode::trigger_advertise() {
  const double mrai = dv_config().mrai_ms;
  if (mrai <= 0.0) {
    advertise();
    return;
  }
  if (advertise_scheduled_) return;
  advertise_scheduled_ = true;
  schedule_guarded(mrai, [this] {
    advertise_scheduled_ = false;
    advertise();
  });
}

void PolicyDvNode::schedule_refresh() {
  const double period = dv_config().periodic_refresh_ms;
  if (period <= 0.0) return;
  schedule_guarded(period, [this] {
    advertise(MsgClass::kRefresh);
    schedule_refresh();
  });
}

void PolicyDvNode::maybe_schedule_release_check() {
  if (release_check_scheduled_) return;
  const SimTime now = net().engine().now();
  const SimTime eta = damper_.next_release_eta(now);
  if (eta < 0.0) return;
  // A hair past the analytic release time, so the update this timer
  // triggers observes the route already below the reuse threshold.
  release_check_scheduled_ = true;
  schedule_guarded(std::max(eta - now, 0.0) + 0.1, [this] {
    release_check_scheduled_ = false;
    // Release directly: encode only queries routes still in the table,
    // so the timer must not depend on it to clear due suppressions.
    if (damper_.release_due(net().engine().now()) > 0) trigger_advertise();
    maybe_schedule_release_check();
  });
}

void PolicyDvNode::schedule_stale_flush(AdId neighbor) {
  schedule_guarded(net().gr().grace_ms + 0.1, [this, neighbor] {
    if (net().in_grace(neighbor)) {
      // The neighbor crashed again and its grace window was extended;
      // retry after the extension.
      schedule_stale_flush(neighbor);
      return;
    }
    flush_stale(neighbor);
  });
}

}  // namespace idr

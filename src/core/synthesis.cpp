#include "core/synthesis.hpp"

#include <algorithm>
#include <limits>

#include "util/check.hpp"

namespace idr {

void GroundTruthView::for_each_neighbor(
    AdId ad, const std::function<void(AdId, std::uint32_t)>& fn) const {
  for (const Adjacency& adj : topo_.neighbors(ad)) {
    const Link& l = topo_.link(adj.link);
    if (!l.up) continue;
    fn(adj.neighbor, l.metric);
  }
}

std::optional<std::uint32_t> GroundTruthView::transit_cost(
    AdId ad, const FlowSpec& flow, AdId prev, AdId next) const {
  if (!topo_.can_transit(ad)) return std::nullopt;
  return policies_.transit_cost(ad, flow, prev, next);
}

namespace {

constexpr std::uint32_t kInf = std::numeric_limits<std::uint32_t>::max();

// Policy-free BFS from `dst` over the view's live links. `dist` covers
// the view's ADs with every entry kInf on entry; the BFS sets the entries
// of the ADs it reaches and lists those ADs in `reached`, in BFS order.
void bfs_distances(const SynthesisView& view, AdId dst,
                   std::vector<std::uint32_t>& dist,
                   std::vector<AdId>& reached) {
  reached.clear();
  if (dst.v >= view.ad_count()) return;
  dist[dst.v] = 0;
  reached.push_back(dst);
  for (std::size_t head = 0; head < reached.size(); ++head) {
    const AdId cur = reached[head];
    view.for_each_neighbor(cur, [&](AdId nbr, std::uint32_t) {
      if (dist[nbr.v] != kInf) return;
      dist[nbr.v] = dist[cur.v] + 1;
      reached.push_back(nbr);
    });
  }
}

// A thread's search state, kept between searches and grown to the
// largest view the thread has searched. Between searches every dist
// entry is kInf and every visited flag clear, so a search resets only
// what it touched: the ADs its BFS reached and its avoid list.
struct SearchScratch {
  std::vector<std::uint32_t> dist;
  std::vector<bool> visited;
  std::vector<AdId> reached;
  bool in_use = false;
};

SearchScratch& search_scratch() {
  thread_local SearchScratch s;
  return s;
}

class Searcher {
 public:
  Searcher(const SynthesisView& view, const FlowSpec& flow,
           const SynthesisOptions& options, SearchScratch& scratch)
      : view_(view),
        flow_(flow),
        options_(options),
        ad_count_(view.ad_count()),
        scratch_(scratch),
        dist_to_dst_(scratch.dist),
        visited_(scratch.visited) {
    IDR_CHECK_MSG(!scratch_.in_use,
                  "synthesize_route re-entered on one thread");
    scratch_.in_use = true;
    if (dist_to_dst_.size() < ad_count_) {
      dist_to_dst_.resize(ad_count_, kInf);
      visited_.resize(ad_count_, false);
    }
    bfs_distances(view, flow.dst, dist_to_dst_, scratch_.reached);
    for (AdId ad : options_.avoid) {
      if (ad.v < ad_count_) visited_[ad.v] = true;  // never enter
    }
    // Avoid lists constrain transit only; endpoints are always allowed.
    if (flow.src.v < ad_count_) visited_[flow.src.v] = false;
    if (flow.dst.v < ad_count_) visited_[flow.dst.v] = false;
  }

  // Restores the scratch's between-searches state. The search unmarks
  // every AD it enters on its way back, so only the avoided ADs and the
  // source are still marked.
  ~Searcher() {
    for (AdId ad : scratch_.reached) dist_to_dst_[ad.v] = kInf;
    for (AdId ad : options_.avoid) {
      if (ad.v < ad_count_) visited_[ad.v] = false;
    }
    if (flow_.src.v < ad_count_) visited_[flow_.src.v] = false;
    scratch_.in_use = false;
  }

  Searcher(const Searcher&) = delete;
  Searcher& operator=(const Searcher&) = delete;

  SynthesisResult run() {
    if (flow_.src.v >= view_.ad_count() || flow_.dst.v >= view_.ad_count() ||
        flow_.src == flow_.dst) {
      return result_;
    }
    // An avoided source/destination is a contradiction only for transit;
    // endpoints are always allowed.
    visited_[flow_.src.v] = true;
    path_.push_back(flow_.src);
    dfs(flow_.src, kNoAd, 0);
    if (result_.found()) {
      result_.outcome = budget_hit_ ? SynthesisOutcome::kBudget
                                    : SynthesisOutcome::kFound;
    } else {
      result_.outcome = budget_hit_ ? SynthesisOutcome::kBudget
                                    : SynthesisOutcome::kNoRoute;
    }
    return result_;
  }

 private:
  struct Child {
    AdId ad;
    std::uint64_t step_cost;
    std::uint32_t heuristic;
  };

  void dfs(AdId cur, AdId prev, std::uint64_t cost) {
    if (done_) return;
    if (++result_.expansions > options_.expansion_budget) {
      budget_hit_ = true;
      done_ = true;
      return;
    }
    if (cur == flow_.dst) {
      if (!result_.found() || cost < result_.cost) {
        result_.path = path_;
        result_.cost = cost;
        if (options_.first_found) done_ = true;
      }
      return;
    }
    if (path_.size() >= options_.max_hops) return;
    // Reachability: a node the destination cannot be reached from (over
    // live links, ignoring policy) is a dead end regardless of options.
    if (dist_to_dst_[cur.v] == kInf) return;
    // Admissible bound: every remaining hop costs at least 1.
    if (options_.use_cost_bound && result_.found() &&
        cost + (options_.use_distance_heuristic ? dist_to_dst_[cur.v] : 1) >=
            result_.cost) {
      return;
    }

    // Collect feasible extensions cur -> n. If cur is not the source it
    // is a transit AD for this step and must have a permitting PT for
    // (prev, n); the step cost includes that PT's cost.
    std::vector<Child> children;
    view_.for_each_neighbor(cur, [&](AdId n, std::uint32_t link_metric) {
      if (visited_[n.v]) return;
      if (dist_to_dst_[n.v] == kInf) return;
      for (const auto& [x, y] : options_.avoid_links) {
        if ((x == cur && y == n) || (x == n && y == cur)) return;
      }
      std::uint64_t step = link_metric;
      if (cur != flow_.src) {
        const auto pt_cost = view_.transit_cost(cur, flow_, prev, n);
        if (!pt_cost) return;
        step += options_.minimize_cost ? *pt_cost : 0;
      }
      if (!options_.minimize_cost) step = 1;  // hop counting
      children.push_back(Child{n, step, dist_to_dst_[n.v]});
    });
    // Deterministic best-first child ordering: toward the destination,
    // ties by id. Determinism is what lets all LSHH nodes agree. With
    // the heuristic ablated, order by id alone (still deterministic).
    if (options_.use_distance_heuristic) {
      std::sort(children.begin(), children.end(),
                [](const Child& a, const Child& b) {
                  if (a.heuristic != b.heuristic) {
                    return a.heuristic < b.heuristic;
                  }
                  if (a.step_cost != b.step_cost) {
                    return a.step_cost < b.step_cost;
                  }
                  return a.ad < b.ad;
                });
    } else {
      std::sort(children.begin(), children.end(),
                [](const Child& a, const Child& b) { return a.ad < b.ad; });
    }
    for (const Child& child : children) {
      if (done_) return;
      visited_[child.ad.v] = true;
      path_.push_back(child.ad);
      dfs(child.ad, cur, cost + child.step_cost);
      path_.pop_back();
      visited_[child.ad.v] = false;
    }
  }

  const SynthesisView& view_;
  const FlowSpec& flow_;
  const SynthesisOptions& options_;
  const std::size_t ad_count_;
  SearchScratch& scratch_;
  std::vector<std::uint32_t>& dist_to_dst_;  // scratch_.dist
  std::vector<bool>& visited_;               // scratch_.visited
  std::vector<AdId> path_;
  SynthesisResult result_;
  bool budget_hit_ = false;
  bool done_ = false;
};

}  // namespace

std::vector<std::uint32_t> distances_to(const SynthesisView& view, AdId dst) {
  std::vector<std::uint32_t> dist(view.ad_count(), kInf);
  std::vector<AdId> reached;
  bfs_distances(view, dst, dist, reached);
  return dist;
}

SynthesisResult synthesize_route(const SynthesisView& view,
                                 const FlowSpec& flow,
                                 const SynthesisOptions& options) {
  IDR_CHECK(options.max_hops >= 2);
  Searcher searcher(view, flow, options, search_scratch());
  return searcher.run();
}

}  // namespace idr

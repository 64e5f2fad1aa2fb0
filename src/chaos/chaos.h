// chaos: deterministic, seeded fault injection for the whole simulated
// cluster. The paper's availability claims (§5) are about behaviour
// *under failures*; this module makes those failures first-class:
//
//  * Injector — the per-deployment fault hub and the only fault store.
//    Components register a site name ("ps-0", "compute-1", "xstore",
//    "lz", "logwriter", ...) and consult the hub on their data paths: is
//    my site in an outage window? should this request fail
//    (transient-failure credits)? how much extra latency does my gray
//    (slow-but-alive) node pay? is the link between two sites
//    partitioned / lossy / slow? Tests inject faults by calling the hub
//    with the site a component is attached under.
//  * SitePort — the per-component handle: a (hub, site) pair whose
//    queries ask the hub about that site and its links to peers. An
//    unattached port (no hub) answers "no fault", so components run
//    unchanged in unit tests that inject nothing.
//
// Determinism: the injector owns its own seeded RNG, and queries draw
// randomness only when a probabilistic fault (link loss) is actually
// configured — an attached-but-idle injector changes no behaviour and
// no RNG stream anywhere in the system.

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>

#include "common/random.h"
#include "common/types.h"

namespace socrates {
namespace chaos {

/// The XLOG process's site: one per deployment, shared by the log
/// writer's delivery channel, the Page Servers' pulls and fault plans.
inline constexpr char kXLogSite[] = "xlog";

/// How often each class of fault actually fired (not how often it was
/// configured) — benches and the soak test print these.
struct InjectorStats {
  uint64_t failures_injected = 0;  // transient-failure credits consumed
  uint64_t outage_hits = 0;        // operations refused by a site outage
  uint64_t messages_dropped = 0;   // partition / lossy-link verdicts
  uint64_t gray_delays = 0;        // operations that paid gray latency
};

/// Deployment-wide fault hub. All methods are synchronous (they decide,
/// the caller pays any simulated time); see SitePort for the per-
/// component view.
class Injector {
 public:
  explicit Injector(uint64_t seed = 0xc4a05) : rng_(seed) {}

  // ----- Site faults.

  /// Hard outage: every operation at `site` fails Unavailable while set.
  void SetOutage(const std::string& site, bool down) {
    sites_[site].outage = down;
  }

  /// The next `n` operations that consult ConsumeFailure at `site` fail
  /// (replacing any credits left there). Credits belong to the site, so
  /// they outlive a restart of the component attached under it.
  void InjectFailures(const std::string& site, int n) {
    sites_[site].fail_next = n;
  }

  /// Remaining transient-failure credits at `site`.
  int FailuresRemaining(const std::string& site) const {
    auto it = sites_.find(site);
    return it == sites_.end() ? 0 : it->second.fail_next;
  }

  /// Gray failure: the node stays up but every operation pays `add_us`
  /// extra latency (0 clears). The monitor's quarantine path clears this
  /// when it replaces the node.
  void SetGrayDelay(const std::string& site, SimTime add_us) {
    sites_[site].gray_delay_us = add_us;
  }

  // ----- Link faults (symmetric: the pair is unordered).

  void SetPartitioned(const std::string& a, const std::string& b,
                      bool on) {
    if (a.empty() || b.empty()) return;
    links_[LinkKey(a, b)].partitioned = on;
  }

  /// Lossy / slow link: each message is dropped with `drop_prob` and
  /// pays `delay_us` extra per direction. (0, 0) clears.
  void SetLink(const std::string& a, const std::string& b,
               double drop_prob, SimTime delay_us) {
    if (a.empty() || b.empty()) return;
    LinkState& l = links_[LinkKey(a, b)];
    l.drop_prob = drop_prob;
    l.delay_us = delay_us;
  }

  // ----- Fault windows (FaultPlan). Windows on one fault nest: the
  // fault stays on until the last overlapping window on it closes.

  /// Counts a window opening on fault `key`.
  void OpenWindow(const std::string& key) { open_windows_[key]++; }

  /// Counts a window on fault `key` closing; true when no other window
  /// on it is still open, so the caller clears the fault.
  bool CloseWindow(const std::string& key) {
    auto it = open_windows_.find(key);
    if (it == open_windows_.end()) return true;
    if (--it->second > 0) return false;
    open_windows_.erase(it);
    return true;
  }

  /// All faults off (site, link and window state cleared; stats kept).
  void Clear() {
    sites_.clear();
    links_.clear();
    open_windows_.clear();
  }

  // ----- Queries (the injection points call these).

  bool SiteOut(const std::string& site) const {
    auto it = sites_.find(site);
    if (it == sites_.end() || !it->second.outage) return false;
    stats_.outage_hits++;
    return true;
  }

  /// Consume one transient-failure credit at `site` if any remain.
  bool ConsumeFailure(const std::string& site) {
    auto it = sites_.find(site);
    if (it == sites_.end() || it->second.fail_next <= 0) return false;
    it->second.fail_next--;
    stats_.failures_injected++;
    return true;
  }

  SimTime GrayDelayUs(const std::string& site) const {
    auto it = sites_.find(site);
    if (it == sites_.end() || it->second.gray_delay_us == 0) return 0;
    stats_.gray_delays++;
    return it->second.gray_delay_us;
  }

  bool Partitioned(const std::string& a, const std::string& b) const {
    auto it = links_.find(LinkKey(a, b));
    return it != links_.end() && it->second.partitioned;
  }

  /// One-way message verdict: dropped by a partition or by lossy-link
  /// chance. Draws randomness only when a loss probability is set.
  bool DropMessage(const std::string& from, const std::string& to) {
    auto it = links_.find(LinkKey(from, to));
    if (it == links_.end()) return false;
    const LinkState& l = it->second;
    if (l.partitioned || (l.drop_prob > 0 && rng_.Bernoulli(l.drop_prob))) {
      stats_.messages_dropped++;
      return true;
    }
    return false;
  }

  /// Extra one-way latency on the link (0 if unconfigured).
  SimTime LinkDelayUs(const std::string& from, const std::string& to) const {
    auto it = links_.find(LinkKey(from, to));
    return it == links_.end() ? 0 : it->second.delay_us;
  }

  const InjectorStats& stats() const { return stats_; }

 private:
  struct SiteState {
    bool outage = false;
    int fail_next = 0;
    SimTime gray_delay_us = 0;
  };
  struct LinkState {
    bool partitioned = false;
    double drop_prob = 0;
    SimTime delay_us = 0;
  };

  static std::pair<std::string, std::string> LinkKey(const std::string& a,
                                                     const std::string& b) {
    return a <= b ? std::make_pair(a, b) : std::make_pair(b, a);
  }

  Random rng_;
  std::map<std::string, SiteState> sites_;
  std::map<std::pair<std::string, std::string>, LinkState> links_;
  std::map<std::string, int> open_windows_;
  mutable InjectorStats stats_;
};

/// Per-component fault handle: every query asks the hub about `site`
/// (and its links to a peer). Unattached, every query answers "no fault".
class SitePort {
 public:
  SitePort() = default;
  SitePort(Injector* hub, std::string site)
      : hub_(hub), site_(std::move(site)) {}

  const std::string& site() const { return site_; }

  bool Out() const { return hub_ != nullptr && hub_->SiteOut(site_); }

  bool ConsumeFailure() {
    return hub_ != nullptr && hub_->ConsumeFailure(site_);
  }

  SimTime GrayDelayUs() const {
    return hub_ == nullptr ? 0 : hub_->GrayDelayUs(site_);
  }

  // ----- Link queries: this site <-> `peer`.

  bool PartitionedFrom(const std::string& peer) const {
    return hub_ != nullptr && hub_->Partitioned(site_, peer);
  }

  /// One-way verdict for a message to `peer` (see Injector::DropMessage).
  bool DropTo(const std::string& peer) {
    return hub_ != nullptr && hub_->DropMessage(site_, peer);
  }

  SimTime LinkDelayUs(const std::string& peer) const {
    return hub_ == nullptr ? 0 : hub_->LinkDelayUs(site_, peer);
  }

 private:
  Injector* hub_ = nullptr;
  std::string site_;
};

}  // namespace chaos
}  // namespace socrates

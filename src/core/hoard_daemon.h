// Automated periodic hoard filling.
//
// SEER normally learns about an imminent disconnection from the user, but
// even that interaction can be eliminated by refilling the hoard on a
// timer (Section 2). The daemon owns the refill recipe: run investigators
// (optional), cluster, honour pending miss pins, choose the hoard, and
// hand the target set to the replication substrate through an install
// callback — keeping this module free of any substrate dependency.
#ifndef SRC_CORE_HOARD_DAEMON_H_
#define SRC_CORE_HOARD_DAEMON_H_

#include <functional>
#include <set>
#include <string>
#include <vector>

#include "src/core/correlator.h"
#include "src/core/durable_correlator.h"
#include "src/core/hoard.h"
#include "src/observer/observer.h"
#include "src/util/status.h"

namespace seer {

struct HoardDaemonConfig {
  Time interval = 6 * kMicrosPerHour;  // refill period
  // When set, investigators run against this filesystem before each
  // clustering pass.
  const SimFilesystem* investigate_fs = nullptr;
  // When set, the daemon owns checkpointing: after every refill, and
  // whenever the current WAL outgrows wal_checkpoint_bytes (compaction —
  // replay-on-recovery stays bounded even if refills are rare). The
  // durable wrapper must be driving the same correlator this daemon
  // refills from.
  DurableCorrelator* durable = nullptr;
  uint64_t wal_checkpoint_bytes = 4u << 20;
};

class HoardDaemon {
 public:
  // Receives the chosen hoard contents as sorted path strings (the
  // replication substrate's SetHoard, typically).
  using InstallFn = std::function<void(const std::vector<std::string>& target)>;

  using Config = HoardDaemonConfig;

  // `observer` may be nullptr (a server-side tenant has no local Observer);
  // the always-hoard set is then empty.
  HoardDaemon(Correlator* correlator, Observer* observer, HoardManager* manager,
              MissLog* miss_log, InstallFn install, HoardManager::SizeFn size_of,
              Config config = {});

  // Refills if the interval has elapsed since the last fill. Returns true
  // when a refill happened. Call this from the simulation's event loop (or
  // a timer in a live deployment).
  bool MaybeRefill(Time now);

  // Unconditional refill (the "disconnection imminent" path).
  HoardSelection ForceRefill(Time now);

  Time last_fill_time() const { return last_fill_; }
  size_t refill_count() const { return refills_; }
  const HoardSelection& last_selection() const { return last_selection_; }

  // Stats of the clustering pass of the most recent refill.
  const ClusterBuildStats& last_cluster_stats() const {
    return correlator_->last_cluster_stats();
  }

  size_t checkpoint_count() const { return checkpoints_; }
  // Outcome of the most recent harvested checkpoint (OK when none ran
  // yet). A failed checkpoint never blocks the refill itself: hoarding
  // keeps working from memory and the next trigger retries.
  const Status& last_checkpoint_status() const { return last_checkpoint_status_; }
  // Stats of the most recent harvested checkpoint: generation, seal stall,
  // encode/write time, bytes, delta ratio. Zeros until one completes.
  const CheckpointStats& last_checkpoint_stats() const { return last_checkpoint_stats_; }

 private:
  void MaybeCheckpoint(bool after_refill);

  Correlator* correlator_;
  Observer* observer_;
  HoardManager* manager_;
  MissLog* miss_log_;
  InstallFn install_;
  HoardManager::SizeFn size_of_;
  Config config_;
  Time last_fill_ = -1;
  size_t refills_ = 0;
  size_t checkpoints_ = 0;
  Status last_checkpoint_status_;
  CheckpointStats last_checkpoint_stats_;
  HoardSelection last_selection_;
};

}  // namespace seer

#endif  // SRC_CORE_HOARD_DAEMON_H_

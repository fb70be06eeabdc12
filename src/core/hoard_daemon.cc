#include "src/core/hoard_daemon.h"

namespace seer {

HoardDaemon::HoardDaemon(Correlator* correlator, Observer* observer, HoardManager* manager,
                         MissLog* miss_log, InstallFn install, HoardManager::SizeFn size_of,
                         Config config)
    : correlator_(correlator),
      observer_(observer),
      manager_(manager),
      miss_log_(miss_log),
      install_(std::move(install)),
      size_of_(std::move(size_of)),
      config_(config) {}

bool HoardDaemon::MaybeRefill(Time now) {
  if (last_fill_ >= 0 && now - last_fill_ < config_.interval) {
    // No refill due, but a fat WAL still forces a compaction checkpoint so
    // crash recovery never has to replay an unbounded log.
    MaybeCheckpoint(/*after_refill=*/false);
    return false;
  }
  ForceRefill(now);
  return true;
}

HoardSelection HoardDaemon::ForceRefill(Time now) {
  // Files the user missed since the last fill are pinned so they (and, via
  // clustering, their projects) come along this time (Section 4.4).
  if (miss_log_ != nullptr) {
    for (const PathId path : miss_log_->TakeFilesToHoard()) {
      manager_->Pin(path);
    }
  }
  if (config_.investigate_fs != nullptr) {
    correlator_->RunInvestigators(*config_.investigate_fs);
  }
  const ClusterSet clusters = correlator_->BuildClusters();
  // Server-side tenants have no local Observer; the always-hoard set is
  // then empty (that list is per-device user configuration).
  static const std::set<PathId> kNoAlwaysHoard;
  last_selection_ = manager_->ChooseHoard(
      *correlator_, clusters, observer_ != nullptr ? observer_->always_hoard() : kNoAlwaysHoard,
      size_of_);
  if (install_) {
    // Egress: the replication substrate deals in pathnames, so strings
    // reappear exactly here.
    install_(last_selection_.PathStrings());
  }
  last_fill_ = now;
  ++refills_;
  MaybeCheckpoint(/*after_refill=*/true);
  return last_selection_;
}

void HoardDaemon::MaybeCheckpoint(bool after_refill) {
  if (config_.durable == nullptr) {
    return;
  }
  DurableCorrelator& durable = *config_.durable;
  // Opportunistic harvest: a background checkpoint that finished since the
  // last tick surfaces its outcome and stats here, even when no new
  // trigger fires this tick.
  if (durable.CheckpointDone()) {
    last_checkpoint_status_ = durable.FinishCheckpoint();
    last_checkpoint_stats_ = durable.last_checkpoint_stats();
  }
  if (!after_refill && durable.wal_bytes() < config_.wal_checkpoint_bytes) {
    return;
  }
  // BeginCheckpoint settles any still-running checkpoint, stalls only for
  // the seal + WAL rotation, and leaves encode/write running off-thread —
  // the refill path never waits on the disk. A non-ok return is either the
  // settled previous checkpoint's failure or a failure to rotate; either
  // way the next trigger retries (forced full).
  const Status begun = durable.BeginCheckpoint();
  last_checkpoint_stats_ = durable.last_checkpoint_stats();
  if (durable.checkpoint_in_flight()) {
    ++checkpoints_;
  }
  if (!begun.ok()) {
    last_checkpoint_status_ = begun;
  }
}

}  // namespace seer

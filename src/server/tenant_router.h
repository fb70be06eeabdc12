// Multi-tenant hoard service: one process, many correlators.
//
// The single-instance stack pairs one Observer with one Correlator on one
// machine. A hoard *service* inverts that: many devices (tenants) stream
// references into one server process, each getting its own Correlator +
// relation-table slab + HoardDaemon, while the expensive shared resources
// — the worker ThreadPool and the checkpoint plane — are multiplexed
// across all of them. TenantRouter is that server plane:
//
//   * SinkFor(t) returns tenant t's ingress — a TenantScopedSink with a
//     stable address, so the transport layer binds it once. Behind it the
//     router resolves every callback to the tenant's DurableCorrelator,
//     creating the tenant on first reference and transparently restoring
//     it if it was evicted.
//   * One shared ThreadPool, the only one src/ makes, runs every
//     tenant's snapshot stripe encode (checkpoints) and stripe decode
//     (restores). Pools are never created per tenant; contended dispatches
//     fall back to inline execution (see ThreadPool), so results are
//     unchanged. Cluster builds and hoard fills are serial.
//   * Tick(now) drives the control plane: harvest finished background
//     checkpoints, start due ones under a max_checkpoints_inflight
//     budget (per-tenant due times staggered across the interval so the
//     fleet never checkpoints in phase), run due hoard refills, and
//     evict cold tenants when over the memory budget.
//   * Eviction is seal-and-release: settle any in-flight checkpoint,
//     fold the WAL into a synchronous snapshot, then free the tenant's
//     correlator, slab, and daemon. The tenant's sink stays valid; the
//     next event re-opens the store (recovery replays nothing — the
//     evicting checkpoint left an empty WAL) and learning resumes.
//
// Isolation invariant, proven by tests/multitenant_test.cc: interleaving
// any number of tenants over the shared pool — including evict/restore
// cycles — leaves every tenant's EncodeSnapshot() byte-identical to a
// standalone single-instance run fed the same stream, at any thread
// count. One laptop == one tenant is the degenerate case, and each
// tenant's store directory is an ordinary single-instance store that
// `seerctl db` reads unchanged.
//
// Threading: the router is a control plane driven from one thread; the
// parallelism lives in the shared pool below it. It is not safe to call two
// router methods concurrently, except under the two-level external locking
// the sharded transport (service.h) uses:
//
//   * A plane lock with a shared and an exclusive side. Anything that
//     changes the tenant map or residency — SinkFor on a new id, first
//     delivery to a non-resident tenant (which restores it),
//     EvictOverBudget, the control verbs, Shutdown — holds it exclusive.
//     Deliveries take the shared side back to back, so a waiting
//     exclusive taker must hold off new shared ones (a writer-priority
//     lock), or it can wait indefinitely.
//   * One lock per tenant, owned here (TenantMutex). Under the shared plane
//     lock, deliveries of sink callbacks to resident tenants and
//     TickTenants may run at the same time on different tenants; the
//     tenant's lock serializes them for any one tenant. The transport holds
//     it around each delivery and calls AfterDelivery before releasing it;
//     TickTenants takes it around each piece of its work on that tenant
//     (harvest, BeginCheckpoint, refill, residency accounting), so a
//     checkpoint or a refill always lands between two of its deliveries.
//
// This is sound because a routed callback on a resident tenant applies its
// event to that tenant's own state (correlator, WAL, miss log, accounting
// mark) before it returns, plus the LRU clock, which is atomic
// (touch_seq_/last_touch_seq are relaxed atomics; the eviction scan
// tolerates torn ordering); because tenants_ map nodes are pointer-stable
// and nothing inserts, restores or evicts under the shared lock; and because
// TickTenants finds its work without any tenant's lock, from fields only it
// and exclusive holders write plus three marks a delivery or a background
// checkpoint may set concurrently (changed, wal_due, CheckpointDone), all
// atomic. Router-wide fields — inflight_, the counters, the seal-stall ring,
// resident_bytes_ and last_error_ — are written only by TickTenants and the
// control verbs, which the transport runs on one thread (its shard 0), or
// under the exclusive lock (a first delivery's restore, on any shard).
#ifndef SRC_SERVER_TENANT_ROUTER_H_
#define SRC_SERVER_TENANT_ROUTER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/core/correlator.h"
#include "src/core/durable_correlator.h"
#include "src/core/hoard.h"
#include "src/core/hoard_daemon.h"
#include "src/core/snapshot_store.h"
#include "src/observer/sink_chain.h"
#include "src/util/fs.h"
#include "src/util/status.h"
#include "src/util/thread_pool.h"

namespace seer {

struct TenantRouterConfig {
  // Seed parameters for every tenant's correlator (store contents win on
  // restore, as in single-instance recovery).
  SeerParams defaults;
  SnapshotStoreOptions store_options;

  // Shared worker pool size (stripe encode and decode); 0 selects
  // DefaultThreadCount() (SEER_THREADS else hardware concurrency).
  int threads = 0;

  // --- residency budget --------------------------------------------------
  // A tenant is *resident* while its correlator is in memory. When either
  // bound is exceeded after a Tick, the coldest residents (least recently
  // referenced) are evicted until both hold. 0 = unbounded.
  uint64_t max_resident_bytes = 0;
  size_t max_resident_tenants = 0;

  // --- checkpoint scheduler ----------------------------------------------
  // Per-tenant checkpoint period. Each tenant's first due time is offset
  // by a per-tenant phase (tenant id modulo 16 slices of the interval), so
  // a fleet created together does not checkpoint in phase.
  Time checkpoint_interval = 1 * kMicrosPerHour;
  // Background checkpoints allowed in flight at once, across all tenants.
  size_t max_checkpoints_inflight = 2;
  // A tenant whose WAL outgrows this is due regardless of its timer, once
  // AfterDelivery sees it (bounds recovery replay, as in HoardDaemonConfig).
  uint64_t wal_checkpoint_bytes = 4u << 20;

  // --- hoard refills -----------------------------------------------------
  // Per-tenant hoard budget; 0 disables refills entirely (a pure
  // learning/checkpointing server).
  uint64_t hoard_budget_bytes = 0;
  // Per-tenant refill period. Refills run synchronously on Tick, at most 4
  // per call, so one Tick holds the control thread only briefly. The rest
  // wait for the next Tick, which a router with a `wake` asks for at once.
  Time hoard_interval = 6 * kMicrosPerHour;
  // Per-file sizes for hoard selection (see HoardManager::SizeFn).
  HoardManager::SizeFn size_of;
};

// Point-in-time view of one tenant (seerctl tenant stats, the bench).
struct TenantStats {
  TenantId tenant = kInvalidTenantId;
  bool resident = false;
  uint64_t references = 0;       // callbacks routed to this tenant
  uint64_t memory_bytes = 0;     // correlator resident bytes; 0 when evicted
  uint64_t generation = 0;       // durable generation (cached across eviction)
  uint64_t files = 0;            // tracked files (cached across eviction)
  uint64_t wal_bytes = 0;
  uint64_t checkpoints = 0;      // harvested, this tenant
  uint64_t evictions = 0;
  uint64_t restores = 0;
  uint64_t refills = 0;
  uint64_t hoard_files = 0;      // size of the last hoard selection
  // Refill cost: wall time of the whole ForceRefill (investigate + cluster
  // + choose), and how much of the last fill the aggregate cache absorbed.
  uint64_t refill_us_total = 0;
  uint64_t last_refill_us = 0;
  uint64_t hoard_dirty_clusters = 0;  // aggregates recomputed, last fill
};

class TenantRouter {
 public:
  // `wake`, when set, is called from any thread whenever work becomes due
  // before the caller's next scheduled Tick: a delivery took a tenant's WAL
  // to wal_checkpoint_bytes (AfterDelivery), a background checkpoint
  // finished, or a Tick left due refills for the next one. A transport
  // that ticks on demand passes it; callers that tick on their own cadence
  // leave it empty.
  TenantRouter(Fs* fs, std::string root, TenantRouterConfig config = {},
               std::function<void()> wake = {});
  // Best-effort Shutdown(); errors are latched in last_error().
  ~TenantRouter();

  // Tenant t's ingress sink. The address is stable for the router's
  // lifetime — across evictions and restores — so transports bind it
  // once. Creating (or restoring) the tenant's store happens lazily on
  // the first routed callback, not here. kInvalidTenantId never gets a
  // store: its events are dropped with an InvalidArgument latched in
  // last_error().
  ReferenceSink* SinkFor(TenantId tenant);

  // The tenant's live correlator, creating/restoring it if needed. Marks
  // the tenant for the next residency pass, which accounts for whatever
  // the caller changes through the pointer before that pass; a caller
  // that keeps mutating across Ticks calls this again.
  StatusOr<Correlator*> CorrelatorFor(TenantId tenant);

  // Control-plane heartbeat for single-threaded callers: TickTenants then
  // EvictOverBudget. Returns the first error encountered (the pass still
  // completes). A WAL-due tenant is flagged only by AfterDelivery, so an
  // in-process caller that wants WAL-triggered checkpoints calls it after
  // routing, as a transport does.
  Status Tick(Time now);

  // Tick's two halves, for a transport that runs them under different
  // sides of its plane lock (see the threading note).
  //   TickTenants: harvest finished checkpoints, start due ones, run due
  //   refills, refresh the accounting of changed tenants. It touches only
  //   tenants with work — flagged, due by timer, in flight or changed —
  //   each under its lock. Shared side. Its accounting waits for a busy
  //   tenant's lock when max_resident_bytes is set, since the figures then
  //   decide eviction; otherwise a busy tenant keeps its mark for the next
  //   pass.
  //   EvictOverBudget: when a residency budget is exceeded, re-account
  //   every changed tenant and evict the coldest until both bounds hold.
  //   Exclusive side; OverBudget (shared side) says whether it has work.
  Status TickTenants(Time now);
  bool OverBudget() const;
  Status EvictOverBudget();

  // The lock that serializes one tenant's deliveries and Tick's work on it
  // (see the threading note). nullptr for tenants never seen; stable for
  // the router's lifetime.
  std::mutex* TenantMutex(TenantId tenant);

  // Called after a delivery to a resident tenant — by a transport still
  // holding the tenant's lock, or by an in-process caller after routing:
  // once the tenant's WAL has reached wal_checkpoint_bytes, flags it for
  // the next Tick and calls `wake` — once per crossing, not once per
  // delivery. The only WAL trigger: Tick does not look at WAL sizes.
  void AfterDelivery(TenantId tenant);

  // Synchronous checkpoint of one tenant (seal + encode + write + prune
  // before returning). Restores the tenant if evicted.
  Status CheckpointTenant(TenantId tenant);

  // Seal-and-release: checkpoint, then free the tenant's in-memory state.
  // Ok and a no-op when already evicted; NotFound for unknown tenants.
  Status EvictTenant(TenantId tenant);

  // Block until every in-flight background checkpoint completes and is
  // harvested (tests and orderly quiesce; Tick never blocks like this).
  Status DrainCheckpoints();

  // Checkpoint and release every resident tenant. The router stays usable
  // (tenants restore on next reference). Returns the first error.
  Status Shutdown();

  // Tenants this router has seen (resident or evicted), ascending.
  std::vector<TenantId> ListTenants() const;
  // A resident tenant's memory, files and generation are read live; an
  // evicted one's come from the caches that survive eviction.
  StatusOr<TenantStats> Stats(TenantId tenant) const;

  // --- per-tenant parameter overrides -------------------------------------
  // A tenant's SeerParams can be overridden independently of the fleet
  // defaults. The override text (params_io format, parsed over the
  // defaults) is persisted as params.seer in the tenant's store directory
  // — atomically, like every other store artifact — and re-applied on
  // every restore, so it survives eviction and router restart. Setting
  // params on a resident tenant applies them live (max_neighbors stays
  // pinned; see Correlator::OverrideTuningParams) and checkpoints it, so
  // the WAL that follows is replayed under the new params.
  Status SetTenantParams(TenantId tenant, const std::string& text);
  // Effective params rendered as params_io text: the live correlator's
  // when resident, else override-over-defaults. NotFound for tenants the
  // router has never seen that also have no store directory.
  StatusOr<std::string> GetTenantParams(TenantId tenant) const;

  // --- per-tenant hoard surfaces ------------------------------------------
  // The tenant's pin set and miss log. Both live outside the evictable
  // slab (they are human-scale and human-entered), are persisted to the
  // store's aux section at checkpoint/eviction, and reload on restore.
  // Creates the tenant entry; nullptr only for kInvalidTenantId.
  HoardManager* HoardFor(TenantId tenant);
  MissLog* MissLogFor(TenantId tenant);

  // True when the tenant exists and its correlator is in memory — the
  // sharded transport's fast-path gate (see the threading note above):
  // callable concurrently under the shared side of the external lock,
  // because residency can only change under the exclusive side.
  bool TenantResident(TenantId tenant) const;

  size_t resident_tenants() const;
  // Sum of resident correlators' MemoryBytes() as of the last accounting
  // pass (Tick or an eviction). MemoryBytes() walks every relation row of a
  // tenant, so a pass recomputes it only for tenants changed since the
  // previous pass.
  uint64_t resident_bytes() const { return resident_bytes_; }

  // --- fleet counters ----------------------------------------------------
  uint64_t evictions() const { return evictions_; }
  uint64_t restores() const { return restores_; }
  uint64_t checkpoints_started() const { return checkpoints_started_; }
  uint64_t checkpoints_harvested() const { return checkpoints_harvested_; }
  size_t checkpoints_inflight() const { return inflight_; }
  // Seal stalls (µs) of the most recent kSealStallWindow harvested
  // checkpoints — the only part of a background checkpoint the ingest path
  // waits for. A bounded ring (oldest entries overwritten, order
  // unspecified), so a long-lived server does not accumulate one entry
  // per checkpoint forever; percentile summaries are order-blind anyway.
  static constexpr size_t kSealStallWindow = 4096;
  const std::vector<uint64_t>& seal_stall_micros() const { return seal_stalls_; }

  // First routing/restore error latched by the event path (sink callbacks
  // cannot return Status). Ok when healthy.
  const Status& last_error() const { return last_error_; }

  const std::string& root() const { return root_; }

 private:
  struct Tenant {
    TenantId id = kInvalidTenantId;
    // The tenant's lock (TenantMutex): held around each delivery and each
    // piece of TickTenants' work on this tenant.
    std::mutex mu;
    // Ingress; address handed out by SinkFor, stable across residency.
    std::unique_ptr<TenantScopedSink> scoped;
    // Resident state: null while evicted.
    std::unique_ptr<DurableCorrelator> durable;
    std::unique_ptr<HoardDaemon> daemon;
    // Survive eviction: pins and misses are tiny and must not be lost
    // when the slab is released.
    HoardManager manager{0};
    MissLog miss_log;
    Time next_checkpoint_due = 0;
    Time last_refill = -1;
    // LRU clock for the eviction pass. Atomic (relaxed) because routed
    // callbacks bump it concurrently from shard threads under the shared
    // external lock; the eviction scan runs exclusive and only needs a
    // monotone-ish ordering, not cross-tenant precision.
    std::atomic<uint64_t> last_touch_seq{0};
    uint64_t memory_bytes = 0;    // as of the last accounting pass
    // Stats caches that survive eviction (refreshed at Tick, checkpoint,
    // eviction, and restore), so `tenant stats` never has to re-open an
    // evicted store.
    uint64_t durable_generation = 0;
    uint64_t last_files = 0;
    // Set by every path that can change the correlator (routed callbacks,
    // CorrelatorFor, refills, checkpoints, restore, params); the residency
    // pass refreshes memory_bytes, last_files and durable_generation only
    // for marked tenants. Written under the tenant's lock or the exclusive
    // side; atomic (relaxed) because TickTenants reads it without the lock
    // to decide whether to visit the tenant, then clears it under the lock.
    std::atomic<bool> changed{true};
    // Set under the tenant's lock once its WAL reached wal_checkpoint_bytes
    // (AfterDelivery); cleared when a checkpoint folds the WAL. TickTenants
    // reads it without the lock, like `changed`.
    std::atomic<bool> wal_due{false};
    bool aux_loaded = false;  // pins/misses recovered from the store once
    bool checkpoint_inflight = false;
    uint64_t checkpoints = 0;
    uint64_t evictions = 0;
    uint64_t restores = 0;
    uint64_t refills = 0;
    uint64_t refill_us_total = 0;
    uint64_t last_refill_us = 0;
  };

  Tenant* FindTenant(TenantId tenant);
  const Tenant* FindTenant(TenantId tenant) const;
  // Lookup-or-create + ensure resident; nullptr on failure (latched).
  Tenant* ResidentTenant(TenantId tenant);
  // The per-callback route target; latches errors into last_error_.
  ReferenceSink* Route(TenantId tenant);
  Status Restore(Tenant* t);
  // Joins the tenant's background checkpoint if one is in flight, then
  // harvests it: counters, seal stall, persisted meta.
  Status SettleCheckpoint(Tenant* t);
  void RecordSealStall(uint64_t micros);
  Status EvictLocked(Tenant* t);
  Time StaggerPhase(TenantId tenant) const;
  // Refreshes the accounting of tenants marked `changed` and re-sums
  // resident_bytes_; under the shared plane lock, see TickTenants.
  void RefreshResidentBytes();
  // Refreshes the eviction-surviving stats caches and rewrites the aux
  // section; called after every successful checkpoint.
  Status PersistTenantMeta(Tenant* t);
  Status EnsureAuxLoaded(Tenant* t);
  std::string ParamsPath(TenantId tenant) const;

  Fs* fs_;
  std::string root_;
  TenantRouterConfig config_;
  std::function<void()> wake_;  // may be empty
  // Every tenant's stripe encode and decode. Declared before tenants_, so
  // it outlives the checkpoint threads their destructors join.
  ThreadPool pool_;
  std::map<TenantId, Tenant> tenants_;  // ordered: ListTenants is sorted
  std::atomic<uint64_t> touch_seq_{0};
  uint64_t resident_bytes_ = 0;
  size_t inflight_ = 0;
  uint64_t evictions_ = 0;
  uint64_t restores_ = 0;
  uint64_t checkpoints_started_ = 0;
  uint64_t checkpoints_harvested_ = 0;
  std::vector<uint64_t> seal_stalls_;  // ring of size <= kSealStallWindow
  size_t seal_stall_next_ = 0;         // overwrite cursor once full
  Status last_error_;
};

}  // namespace seer

#endif  // SRC_SERVER_TENANT_ROUTER_H_

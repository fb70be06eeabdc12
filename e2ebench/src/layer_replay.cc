// The traced run's layer replay: the workload's generated inputs, replayed
// on one thread through each layer's public functions, every call inside a
// span. Per tenant, in pipeline order:
//
//   server/wire      FrameDecoder::NextView + wire::EventArena::Decode
//   observer         Observer::OnInternedEvent
//   core/correlator  IngestBatch (measure / fold split from IngestStats)
//   core/wal         WalWriter::Append* of the same sink events
//   core/durable     DurableCorrelator sink calls, fed the same events
//   refill points    RunInvestigators, BuildClusters, ChooseHoard,
//                    BeginCheckpoint — the public steps of ForceRefill,
//                    checked against a HoardDaemon::ForceRefill
//   seal/encode      SealSnapshot + EncodeSealedSnapshot, full then delta
//   recovery         SnapshotStore::Recover, DecodeSnapshotChain over the
//                    store's chain, DurableCorrelator::Open
//   WAL replay       ReplayWal of the appended log with a null sink (scan)
//                    and into a fresh Correlator (apply), checked equal to
//                    the batched correlator
//
// Work the benchmark itself does (building objects, checks) sits in bench.*
// spans, so wall time minus the spans' self times is time nothing
// accounted for: bench.unattributed_frac.
#include <filesystem>
#include <memory>

#include "e2ebench/src/workloads.h"
#include "src/core/correlator.h"
#include "src/core/durable_correlator.h"
#include "src/core/hoard.h"
#include "src/core/hoard_daemon.h"
#include "src/core/investigator.h"
#include "src/core/snapshot_store.h"
#include "src/core/wal.h"
#include "src/observer/observer.h"
#include "src/util/thread_pool.h"

namespace e2e {
namespace {

constexpr size_t kBatch = 1024;  // IngestBatcher's default capacity
// Refill points replayed per tenant at most (evenly chosen): each costs a
// whole investigate + cluster + fill, and its ForceRefill check again.
constexpr size_t kMaxRefills = 48;

class CaptureSink : public seer::ReferenceSink {
 public:
  explicit CaptureSink(std::vector<seer::IngestEvent>* out) : out_(out) {}
  void OnReference(const seer::FileReference& ref) override {
    seer::IngestEvent e;
    e.kind = seer::IngestEvent::Kind::kReference;
    e.ref = ref;
    out_->push_back(e);
  }
  void OnProcessFork(seer::Pid parent, seer::Pid child) override {
    seer::IngestEvent e;
    e.kind = seer::IngestEvent::Kind::kFork;
    e.parent = parent;
    e.child = child;
    out_->push_back(e);
  }
  void OnProcessExit(seer::Pid pid) override {
    seer::IngestEvent e;
    e.kind = seer::IngestEvent::Kind::kExit;
    e.child = pid;
    out_->push_back(e);
  }
  void OnFileDeleted(seer::PathId path, seer::Time time) override {
    seer::IngestEvent e;
    e.kind = seer::IngestEvent::Kind::kDeleted;
    e.path = path;
    e.time = time;
    out_->push_back(e);
  }
  void OnFileRenamed(seer::PathId from, seer::PathId to, seer::Time time) override {
    seer::IngestEvent e;
    e.kind = seer::IngestEvent::Kind::kRenamed;
    e.path = from;
    e.path2 = to;
    e.time = time;
    out_->push_back(e);
  }
  void OnFileExcluded(seer::PathId path) override {
    seer::IngestEvent e;
    e.kind = seer::IngestEvent::Kind::kExcluded;
    e.path = path;
    out_->push_back(e);
  }

 private:
  std::vector<seer::IngestEvent>* out_;
};

void Deliver(seer::ReferenceSink* sink, const seer::IngestEvent& e) {
  switch (e.kind) {
    case seer::IngestEvent::Kind::kReference:
      sink->OnReference(e.ref);
      break;
    case seer::IngestEvent::Kind::kFork:
      sink->OnProcessFork(e.parent, e.child);
      break;
    case seer::IngestEvent::Kind::kExit:
      sink->OnProcessExit(e.child);
      break;
    case seer::IngestEvent::Kind::kDeleted:
      sink->OnFileDeleted(e.path, e.time);
      break;
    case seer::IngestEvent::Kind::kRenamed:
      sink->OnFileRenamed(e.path, e.path2, e.time);
      break;
    case seer::IngestEvent::Kind::kExcluded:
      sink->OnFileExcluded(e.path);
      break;
  }
}

seer::Status Append(seer::WalWriter* wal, const seer::IngestEvent& e) {
  switch (e.kind) {
    case seer::IngestEvent::Kind::kReference:
      return wal->AppendReference(e.ref);
    case seer::IngestEvent::Kind::kFork:
      return wal->AppendFork(e.parent, e.child);
    case seer::IngestEvent::Kind::kExit:
      return wal->AppendExit(e.child);
    case seer::IngestEvent::Kind::kDeleted:
      return wal->AppendDeleted(e.path, e.time);
    case seer::IngestEvent::Kind::kRenamed:
      return wal->AppendRenamed(e.path, e.path2, e.time);
    case seer::IngestEvent::Kind::kExcluded:
      return wal->AppendExcluded(e.path);
  }
  return seer::Status::Ok();
}

struct Totals {
  uint64_t events = 0, sink_events = 0, refs_emitted = 0, refs = 0;
  uint64_t measure_us = 0, fold_us = 0, parallel_folds = 0, serial_folds = 0;
  uint64_t wal_records = 0, wal_bytes = 0, replayed = 0;
  uint64_t seals = 0, encodes = 0;
  double delta_ratio_sum = 0.0;
  uint64_t deltas = 0;
  uint64_t refills = 0, builds_incremental = 0;
  double pack_ms = 0, plan_ms = 0, score_ms = 0, merge_ms = 0;
  uint64_t clusters = 0, reused = 0;
  uint64_t recoveries = 0, chain_files = 0;
  uint64_t check_mismatches = 0;
};

// Replays one tenant. Returns false (after reporting) when a layer fails.
bool ReplayTenant(const TenantInput& tenant, const seer::SimFilesystem* investigate_fs,
                  const std::vector<size_t>& refill_at, uint64_t budget, const std::string& dir,
                  seer::Fs* fs, seer::ThreadPool* pool, SpanLog* spans, Totals* totals,
                  Report* report) {
  const seer::SeerParams params;

  // --- wire + observer ---------------------------------------------------
  std::vector<seer::IngestEvent> captured;
  std::vector<size_t> captured_at_frame;  // captured.size() before each frame
  {
    seer::wire::FrameDecoder decoder;
    seer::wire::EventArena arena;
    seer::Observer observer(seer::ObserverConfig{}, investigate_fs);
    CaptureSink capture(&captured);
    observer.set_sink(&capture);
    for (const std::string& frame : tenant.frames) {
      captured_at_frame.push_back(captured.size());
      {
        ScopedSpan span(spans, "server.wire.decode");
        decoder.Append(frame);
        seer::StatusOr<std::optional<seer::wire::FrameView>> view = decoder.NextView();
        if (!view.ok() || !view->has_value() || !arena.Decode((*view)->payload).ok()) {
          report->Fail("layer replay: frame did not decode");
          return false;
        }
      }
      ScopedSpan span(spans, "observer");
      for (const seer::InternedEvent& e : arena.events()) {
        observer.OnInternedEvent(e);
      }
    }
    totals->events += tenant.events;
    totals->refs_emitted += observer.references_emitted();
  }
  totals->sink_events += captured.size();

  // Refill positions (indices into `captured`): the given event indices,
  // moved to the start of their frame, else four spaced evenly.
  std::vector<size_t> refills;
  if (!refill_at.empty()) {
    size_t frame = 0;
    uint64_t frame_end = tenant.frame_events.empty() ? 0 : tenant.frame_events[0];
    const size_t picked = std::min(kMaxRefills, refill_at.size());
    for (size_t i = 0; i < picked; ++i) {
      const size_t at = refill_at[i * refill_at.size() / picked];
      while (frame + 1 < tenant.frame_events.size() && at >= frame_end) {
        frame_end += tenant.frame_events[++frame];
      }
      refills.push_back(captured_at_frame.empty() ? 0 : captured_at_frame[frame]);
    }
  } else {
    for (size_t q = 1; q <= 4; ++q) {
      refills.push_back(captured.size() * q / 4);
    }
  }

  // --- correlator, WAL, durable ------------------------------------------
  const std::string store_dir = dir + "/store";
  const std::string wal_path = dir + "/wal-replay.seerwal";
  std::unique_ptr<seer::Correlator> batched;
  std::unique_ptr<seer::WalWriter> wal;
  std::unique_ptr<seer::DurableCorrelator> durable;
  std::unique_ptr<seer::HoardManager> manager;
  std::unique_ptr<seer::HoardManager> daemon_manager;
  std::unique_ptr<seer::HoardDaemon> daemon;
  {
    ScopedSpan span(spans, "bench.setup");
    batched = std::make_unique<seer::Correlator>(params);
    batched->UseSharedPool(pool);
    if (!fs->MakeDirs(dir).ok()) {
      report->Fail("layer replay: cannot create " + dir);
      return false;
    }
    wal = std::make_unique<seer::WalWriter>(fs, wal_path, 1);
    if (!wal->Create().ok()) {
      report->Fail("layer replay: cannot create " + wal_path);
      return false;
    }
    manager = std::make_unique<seer::HoardManager>(budget);
    manager->set_shared_pool(pool);
    daemon_manager = std::make_unique<seer::HoardManager>(budget);
    daemon_manager->set_shared_pool(pool);
  }
  {
    ScopedSpan span(spans, "core.durable_correlator.open_fresh");
    seer::StatusOr<std::unique_ptr<seer::DurableCorrelator>> opened =
        seer::DurableCorrelator::Open(fs, store_dir, params, {}, pool);
    if (!opened.ok()) {
      report->Fail("layer replay: open: " + opened.status().message());
      return false;
    }
    durable = std::move(*opened);
  }
  seer::Correlator& live = durable->correlator();
  if (investigate_fs != nullptr) {
    ScopedSpan span(spans, "bench.setup");
    live.AddInvestigator(std::make_unique<seer::IncludeScanner>());
    live.AddInvestigator(std::make_unique<seer::MakefileInvestigator>());
    live.AddInvestigator(std::make_unique<seer::HotLinkInvestigator>());
  }
  {
    ScopedSpan span(spans, "bench.setup");
    seer::HoardDaemonConfig config;
    config.investigate_fs = investigate_fs;
    daemon = std::make_unique<seer::HoardDaemon>(&live, nullptr, daemon_manager.get(), nullptr,
                                                 nullptr, FileSizeOf, config);
  }

  static const std::set<seer::PathId> kNoAlwaysHoard;
  const size_t mid = captured.size() / 2;
  bool sealed_full = false;
  uint64_t full_bytes = 0;
  seer::SealedSnapshot full_cut;
  size_t cursor = 0;
  for (size_t r = 0; r <= refills.size(); ++r) {
    const size_t end = r < refills.size() ? std::min(refills[r], captured.size()) : captured.size();
    while (cursor < end) {
      const size_t n = std::min(kBatch, end - cursor);
      const seer::IngestEvent* batch = captured.data() + cursor;
      {
        ScopedSpan span(spans, "core.correlator.ingest_batch");
        batched->IngestBatch(batch, n);
      }
      {
        ScopedSpan span(spans, "core.wal.append");
        for (size_t i = 0; i < n; ++i) {
          if (!Append(wal.get(), batch[i]).ok()) {
            report->Fail("layer replay: WAL append failed");
            return false;
          }
        }
      }
      {
        ScopedSpan span(spans, "core.durable_correlator.ingest");
        for (size_t i = 0; i < n; ++i) {
          Deliver(durable.get(), batch[i]);
        }
      }
      cursor += n;
    }
    if (!sealed_full && cursor >= mid && cursor > 0) {
      {
        ScopedSpan span(spans, "core.correlator.seal");
        full_cut = batched->SealSnapshot();
      }
      ScopedSpan span(spans, "core.snapshot_codec.encode");
      full_bytes = seer::EncodeSealedSnapshot(full_cut, nullptr).size();
      sealed_full = true;
      ++totals->seals;
      ++totals->encodes;
    }
    if (r == refills.size()) {
      break;
    }
    // A refill point: the public steps of HoardDaemon::ForceRefill.
    {
      ScopedSpan span(spans, "core.durable_correlator.ingest");
      (void)durable->correlator();  // flushes the ingest batcher
    }
    if (investigate_fs != nullptr) {
      ScopedSpan span(spans, "core.investigator");
      live.RunInvestigators(*investigate_fs);
    }
    seer::ClusterSet clusters;
    {
      ScopedSpan span(spans, "core.clustering.build");
      clusters = live.BuildClusters();
    }
    const seer::ClusterBuildStats& cs = live.last_cluster_stats();
    totals->pack_ms += cs.pack_ms;
    totals->plan_ms += cs.plan_ms;
    totals->score_ms += cs.score_ms;
    totals->merge_ms += cs.merge_ms;
    totals->builds_incremental += cs.incremental ? 1 : 0;
    seer::HoardSelection selection;
    {
      ScopedSpan span(spans, "core.hoard.choose");
      selection = manager->ChooseHoard(live, clusters, kNoAlwaysHoard, FileSizeOf);
    }
    totals->clusters += manager->last_fill_stats().clusters;
    totals->reused += manager->last_fill_stats().reused_aggregates;
    {
      ScopedSpan span(spans, "core.durable_correlator.begin_checkpoint");
      if (!durable->BeginCheckpoint().ok()) {
        report->Fail("layer replay: BeginCheckpoint failed");
      }
    }
    ++totals->refills;
    ScopedSpan span(spans, "bench.check_refill");
    const seer::HoardSelection forced =
        daemon->ForceRefill(static_cast<seer::Time>(totals->refills));
    if (forced.files != selection.files) {
      ++totals->check_mismatches;
    }
  }

  // A delta over the mid-point cut, against a full of the same end state.
  if (sealed_full) {
    seer::Correlator::SealRequest request;
    request.delta = true;
    request.base_generation = 1;
    request.relation_epoch = full_cut.relation_epoch;
    request.stream_epoch = full_cut.stream_epoch;
    {
      ScopedSpan span(spans, "core.correlator.seal");
      full_cut = batched->SealSnapshot();
    }
    {
      ScopedSpan span(spans, "core.snapshot_codec.encode");
      full_bytes = seer::EncodeSealedSnapshot(full_cut, nullptr).size();
    }
    ++totals->seals;
    ++totals->encodes;
    seer::SealedSnapshot delta;
    {
      ScopedSpan span(spans, "core.correlator.seal");
      delta = batched->SealSnapshot(request);
    }
    ScopedSpan span(spans, "core.snapshot_codec.encode");
    const size_t delta_bytes = seer::EncodeSealedSnapshot(delta, nullptr).size();
    ++totals->seals;
    ++totals->encodes;
    ++totals->deltas;
    totals->delta_ratio_sum += full_bytes > 0 ? static_cast<double>(delta_bytes) / full_bytes : 0.0;
  }
  totals->refs += batched->ingest_stats().refs;
  totals->measure_us += batched->ingest_stats().measure_us;
  totals->fold_us += batched->ingest_stats().fold_us;
  totals->parallel_folds += batched->ingest_stats().parallel_folds;
  totals->serial_folds += batched->ingest_stats().serial_folds;
  {
    ScopedSpan span(spans, "core.durable_correlator.close");
    if (!wal->Sync().ok() || !durable->FinishCheckpoint().ok() || !durable->Sync().ok()) {
      report->Fail("layer replay: sync failed");
    }
    totals->wal_records += wal->records_logged();
    totals->wal_bytes += wal->bytes_logged();
    daemon.reset();
    durable.reset();
  }

  // --- recovery ------------------------------------------------------------
  seer::SnapshotStore store(fs, store_dir);
  {
    ScopedSpan span(spans, "core.snapshot_store.recover");
    if (!store.Recover(params, pool).ok()) {
      report->Fail("layer replay: Recover failed");
      return false;
    }
  }
  std::vector<std::string> chain;
  {
    ScopedSpan span(spans, "util.fs.read_chain");
    seer::StatusOr<std::vector<seer::SnapshotStore::SnapshotFileInfo>> files =
        store.ListSnapshotFiles();
    if (!files.ok() || files->empty()) {
      report->Fail("layer replay: no snapshots in " + store_dir);
      return false;
    }
    size_t first = files->size() - 1;
    while (first > 0 && (*files)[first].delta) {
      --first;
    }
    for (size_t i = first; i < files->size(); ++i) {
      const seer::SnapshotStore::SnapshotFileInfo& f = (*files)[i];
      seer::StatusOr<std::string> bytes =
          fs->ReadFile(f.delta ? store.DeltaPath(f.generation) : store.SnapshotPath(f.generation));
      if (!bytes.ok()) {
        report->Fail("layer replay: cannot read the snapshot chain");
        return false;
      }
      chain.push_back(std::move(*bytes));
    }
  }
  {
    ScopedSpan span(spans, "core.correlator.decode_chain");
    const std::vector<std::string_view> views(chain.begin(), chain.end());
    if (!seer::Correlator::DecodeSnapshotChain(views, pool).ok()) {
      report->Fail("layer replay: chain decode failed");
      return false;
    }
  }
  totals->chain_files += chain.size();
  {
    ScopedSpan span(spans, "core.durable_correlator.open");
    if (!seer::DurableCorrelator::Open(fs, store_dir, params, {}, pool).ok()) {
      report->Fail("layer replay: reopen failed");
      return false;
    }
  }
  ++totals->recoveries;

  // --- WAL replay ------------------------------------------------------------
  std::string log;
  {
    ScopedSpan span(spans, "util.fs.read_wal");
    seer::StatusOr<std::string> bytes = fs->ReadFile(wal_path);
    if (!bytes.ok()) {
      report->Fail("layer replay: cannot read " + wal_path);
      return false;
    }
    log = std::move(*bytes);
  }
  {
    ScopedSpan span(spans, "core.wal.replay_scan");
    if (!seer::ReplayWal(log, nullptr).ok()) {
      report->Fail("layer replay: WAL scan failed");
      return false;
    }
  }
  seer::Correlator replayed(params);
  {
    ScopedSpan span(spans, "core.wal.replay_apply");
    seer::StatusOr<seer::WalReplayStats> stats = seer::ReplayWal(log, &replayed);
    if (!stats.ok()) {
      report->Fail("layer replay: WAL apply failed");
      return false;
    }
    totals->replayed += stats->records_applied;
  }
  ScopedSpan span(spans, "bench.check_wal");
  if (replayed.EncodeSnapshot() != batched->EncodeSnapshot()) {
    report->Fail("layer replay: WAL replay differs from batched ingest for tenant " +
                 std::to_string(tenant.id));
  }
  return true;
}

}  // namespace

void RunLayerReplay(const Options& options, const LayerReplayInput& input, SpanLog* spans,
                    Report* report) {
  seer::ThreadPool pool(1);
  seer::RealFs real;
  CountingFs fs(&real);
  fs.set_timing(true);
  const std::string root = FreshDir(options, "layer-replay");
  Totals totals;
  const size_t first_span = spans->size();
  const auto start = SteadyClock::now();
  for (const TenantInput& tenant : *input.tenants) {
    if (totals.events >= input.max_events) {
      break;
    }
    std::unique_ptr<seer::SimFilesystem> own_fs;
    const seer::SimFilesystem* investigate_fs = input.investigate_fs;
    if (investigate_fs == nullptr) {
      ScopedSpan span(spans, "bench.setup");
      own_fs = TenantFilesystem(input.seed, tenant.id, tenant.profile);
      investigate_fs = own_fs.get();
    }
    if (!ReplayTenant(tenant, investigate_fs, input.refill_at, input.hoard_budget_bytes,
                      root + "/tenant-" + std::to_string(tenant.id), &fs, &pool, spans, &totals,
                      report)) {
      return;
    }
  }
  const double wall_ms = SecondsSince(start) * 1e3;
  const double covered_ms = spans->SelfMsSum(first_span, spans->size());
  const auto per = [](double total, uint64_t n) { return n > 0 ? total / n : 0.0; };
  const auto ns_per = [&](const char* span, uint64_t n) {
    return per(spans->TotalMs(span, first_span) * 1e6, n);
  };
  const auto ms_per = [&](const char* span, uint64_t n) {
    return per(spans->TotalMs(span, first_span), n);
  };

  report->Note("layer_replay", std::to_string(totals.events) + " events of " +
                                   std::to_string(totals.recoveries) + " tenants, " +
                                   std::to_string(totals.refills) + " refills, one thread");
  report->Set("bench.unattributed_frac", wall_ms > 0 ? (wall_ms - covered_ms) / wall_ms : 0.0,
              "ratio");
  report->Set("bench.layer_replay_ms", wall_ms, "ms");
  report->Set("server.wire.decode_ns_per_event", ns_per("server.wire.decode", totals.events),
              "ns");
  report->Set("observer.ns_per_event", ns_per("observer", totals.events), "ns");
  report->Set("observer.refs_per_event", per(static_cast<double>(totals.refs_emitted), totals.events),
              "ratio");
  report->Set("core.correlator.ingest_ns_per_ref",
              ns_per("core.correlator.ingest_batch", totals.refs), "ns");
  report->Set("core.correlator.measure_ns_per_ref", per(totals.measure_us * 1e3, totals.refs), "ns");
  report->Set("core.correlator.fold_ns_per_ref", per(totals.fold_us * 1e3, totals.refs), "ns");
  report->Set("core.correlator.parallel_fold_frac",
              per(static_cast<double>(totals.parallel_folds),
                  totals.parallel_folds + totals.serial_folds),
              "ratio");
  report->Set("core.wal.append_ns_per_record", ns_per("core.wal.append", totals.wal_records), "ns");
  report->Set("core.wal.bytes_per_record",
              per(static_cast<double>(totals.wal_bytes), totals.wal_records), "B");
  report->Set("core.correlator.seal_us", ms_per("core.correlator.seal", totals.seals) * 1e3, "us");
  report->Set("core.snapshot_codec.encode_us",
              ms_per("core.snapshot_codec.encode", totals.encodes) * 1e3, "us");
  report->Set("core.snapshot_codec.delta_ratio", per(totals.delta_ratio_sum, totals.deltas),
              "ratio");
  report->Set("core.durable_correlator.ns_per_ref",
              ns_per("core.durable_correlator.ingest", totals.refs), "ns");
  report->Set("core.investigator.ms", ms_per("core.investigator", totals.refills), "ms");
  report->Set("core.clustering.build_ms", ms_per("core.clustering.build", totals.refills), "ms");
  report->Set("core.clustering.pack_ms", per(totals.pack_ms, totals.refills), "ms");
  report->Set("core.clustering.plan_ms", per(totals.plan_ms, totals.refills), "ms");
  report->Set("core.clustering.score_ms", per(totals.score_ms, totals.refills), "ms");
  report->Set("core.clustering.merge_ms", per(totals.merge_ms, totals.refills), "ms");
  report->Set("core.clustering.incremental_frac",
              per(static_cast<double>(totals.builds_incremental), totals.refills), "ratio");
  report->Set("core.hoard.choose_ms", ms_per("core.hoard.choose", totals.refills), "ms");
  report->Set("core.hoard.reused_frac", per(static_cast<double>(totals.reused), totals.clusters),
              "ratio");
  report->Set("core.durable_correlator.begin_checkpoint_ms",
              ms_per("core.durable_correlator.begin_checkpoint", totals.refills), "ms");
  report->Set("core.snapshot_store.recover_ms",
              ms_per("core.snapshot_store.recover", totals.recoveries), "ms");
  report->Set("core.correlator.decode_chain_ms",
              ms_per("core.correlator.decode_chain", totals.recoveries), "ms");
  report->Set("core.snapshot_codec.chain_length",
              per(static_cast<double>(totals.chain_files), totals.recoveries), "count");
  report->Set("core.durable_correlator.open_ms",
              ms_per("core.durable_correlator.open", totals.recoveries), "ms");
  const double append_ns = ns_per("core.wal.append", totals.wal_records);
  const double scan_ns = ns_per("core.wal.replay_scan", totals.replayed);
  const double apply_ns = ns_per("core.wal.replay_apply", totals.replayed);
  report->Set("core.wal.replay_scan_ns_per_record", scan_ns, "ns");
  report->Set("core.wal.replay_apply_ns_per_record", apply_ns, "ns");
  report->Set("core.wal.records_replayed", static_cast<double>(totals.replayed), "count");
  // ROADMAP item 1: "why is WAL replay ~60x append?" — apply against append
  // and how much of the apply the scan (framing, CRC, dictionary) explains.
  report->Set("answer.wal_apply_vs_append", append_ns > 0 ? apply_ns / append_ns : 0.0, "ratio");
  report->Set("answer.wal_scan_vs_append", append_ns > 0 ? scan_ns / append_ns : 0.0, "ratio");
  report->Set("answer.wal_scan_share_of_apply", apply_ns > 0 ? scan_ns / apply_ns : 0.0, "ratio");
  report->Set("bench.check_refill_ms", spans->TotalMs("bench.check_refill", first_span), "ms");
  if (totals.check_mismatches > 0) {
    report->Fail("layer replay: " + std::to_string(totals.check_mismatches) +
                 " decomposed refills chose a different hoard than ForceRefill");
  }
}

}  // namespace e2e

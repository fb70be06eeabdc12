#include "e2ebench/src/inputs.h"

#include <algorithm>

#include "src/process/clock.h"
#include "src/process/process_table.h"
#include "src/process/syscall_tracer.h"
#include "src/server/wire.h"
#include "src/sim/disconnect_model.h"
#include "src/sim/machine_sim.h"
#include "src/util/path_interner.h"
#include "src/util/rng.h"
#include "src/workload/machine_profile.h"
#include "src/workload/user_model.h"

namespace e2e {
namespace {

// Keeps the first `limit` traced events.
class CollectSink : public seer::TraceSink {
 public:
  CollectSink(std::vector<seer::TraceEvent>* out, size_t limit) : out_(out), limit_(limit) {}
  void OnEvent(const seer::TraceEvent& event) override {
    if (out_->size() < limit_) {
      out_->push_back(event);
    }
  }
  bool full() const { return out_->size() >= limit_; }

 private:
  std::vector<seer::TraceEvent>* out_;
  size_t limit_;
};

uint64_t MixSeed(uint64_t seed, uint64_t stream) {
  seer::SplitMix64 mix(seed * 0x9e3779b97f4a7c15ULL + stream);
  return mix.Next();
}

// Runs a profile's user until `limit` events exist. Returns the environment
// (and leaves the filesystem in `fs`) for callers that investigate it.
seer::UserEnvironment RunUser(const seer::MachineProfile& profile, uint64_t env_seed,
                              uint64_t user_seed, seer::SimFilesystem* fs,
                              std::vector<seer::TraceEvent>* out, size_t limit) {
  seer::Rng rng(env_seed ^ profile.seed_base);
  seer::UserEnvironment env = seer::BuildEnvironment(fs, profile.env, &rng);
  seer::ProcessTable processes;
  seer::SimClock clock;
  seer::SyscallTracer tracer(fs, &processes, &clock);
  CollectSink sink(out, limit);
  tracer.AddSink(&sink);
  seer::UserModel user(&tracer, &env, profile.user, user_seed);
  user.SeedHistory();
  while (!sink.full()) {
    const size_t before = out->size();
    user.RunOneSession();
    if (out->size() == before && user.sessions_run() > 1000000) {
      break;  // a user that stopped producing events; never seen
    }
  }
  return env;
}

}  // namespace

std::vector<seer::TraceEvent> TenantTrace(uint64_t seed, seer::TenantId tenant, char profile,
                                          size_t events) {
  std::vector<seer::TraceEvent> out;
  out.reserve(events);
  seer::SimFilesystem fs;
  const uint64_t tenant_seed = MixSeed(seed, tenant);
  RunUser(seer::GetMachineProfile(profile), tenant_seed, tenant_seed, &fs, &out, events);
  return out;
}

std::unique_ptr<seer::SimFilesystem> TenantFilesystem(uint64_t seed, seer::TenantId tenant,
                                                      char profile) {
  const seer::MachineProfile machine = seer::GetMachineProfile(profile);
  auto fs = std::make_unique<seer::SimFilesystem>();
  seer::Rng rng(MixSeed(seed, tenant) ^ machine.seed_base);
  seer::BuildEnvironment(fs.get(), machine.env, &rng);
  return fs;
}

TenantInput EncodeTenant(seer::TenantId tenant, char profile,
                         const std::vector<seer::TraceEvent>& events, size_t per_frame) {
  TenantInput input;
  input.id = tenant;
  input.profile = profile;
  input.events = events.size();
  std::vector<seer::TraceEvent> batch;
  for (size_t i = 0; i < events.size(); i += per_frame) {
    const size_t n = std::min(per_frame, events.size() - i);
    batch.assign(events.begin() + static_cast<ptrdiff_t>(i),
                 events.begin() + static_cast<ptrdiff_t>(i + n));
    input.frames.push_back(seer::wire::EncodeFrame(seer::wire::FrameType::kEvents, tenant,
                                                   seer::wire::EncodeEvents(batch)));
    input.frame_events.push_back(static_cast<uint32_t>(n));
  }
  return input;
}

std::vector<TenantInput> FleetInputs(uint64_t seed, size_t count, size_t events_per_tenant,
                                     size_t per_frame) {
  std::vector<TenantInput> tenants;
  tenants.reserve(count);
  for (size_t t = 0; t < count; ++t) {
    const seer::TenantId id = static_cast<seer::TenantId>(t + 1);
    const char profile = kProfiles[t % (sizeof(kProfiles) - 1)];
    tenants.push_back(
        EncodeTenant(id, profile, TenantTrace(seed, id, profile, events_per_tenant), per_frame));
  }
  return tenants;
}

LaptopInputs MakeLaptop(uint64_t seed, size_t events) {
  seer::MachineProfile profile = seer::GetMachineProfile('F');
  // Stock F tracks a few hundred files; the paper's heavy user had ~20k.
  // More and larger projects (SeedHistory builds every one) bring the
  // correlator to ~10^4 tracked files.
  profile.env.num_projects = 130;
  profile.env.sources_per_project = 16;
  profile.env.headers_per_project = 8;
  profile.env.num_misc_files = 1000;

  LaptopInputs laptop;
  laptop.fs = std::make_unique<seer::SimFilesystem>();
  laptop.events.reserve(events);
  // One machine: its namespace is the same for every seed; the seed picks
  // what the user does on it and when it disconnects.
  laptop.env = RunUser(profile, /*env_seed=*/0xF00D, MixSeed(seed, 0xF00D), laptop.fs.get(),
                       &laptop.events, events);
  laptop.hoard_budget_bytes = static_cast<uint64_t>(profile.hoard_mb * 1024.0 * 1024.0);
  laptop.disconnections = profile.disconnections;

  // Work between disconnections follows F's calibrated duration
  // distribution: cut points at the cumulative sampled hours, scaled onto
  // the trace.
  seer::Rng rng(MixSeed(seed, 0xD15C));
  const seer::DisconnectionSampler sampler = seer::SamplerFor(profile);
  std::vector<double> cumulative;
  double total = 0.0;
  for (int i = 0; i < profile.disconnections; ++i) {
    total += sampler.SampleHours(rng);
    cumulative.push_back(total);
  }
  for (const double c : cumulative) {
    const size_t at = static_cast<size_t>(c / total * static_cast<double>(events - 1));
    laptop.disconnect_at.push_back(std::min(at, laptop.events.size()));
  }
  return laptop;
}

uint64_t FileSizeOf(seer::PathId path) {
  return seer::GeometricSizeForPath(std::string(seer::GlobalPaths().PathOf(path)), 1);
}

}  // namespace e2e

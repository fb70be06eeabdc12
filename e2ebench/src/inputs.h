// Seeded input generation. Every trace comes from the repository's own
// synthetic user (src/workload UserModel over a machine profile's
// environment), and disconnection points from src/sim/disconnect_model —
// so the benchmark drives the program with the same kind of input the
// paper's evaluation reproductions use. The seed is the only source of
// variation: the same seed gives byte-identical inputs.
//
// All inputs are generated and encoded before any timer starts.
#ifndef E2EBENCH_SRC_INPUTS_H_
#define E2EBENCH_SRC_INPUTS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/observer/reference.h"
#include "src/trace/event.h"
#include "src/vfs/sim_filesystem.h"
#include "src/workload/environment.h"

namespace e2e {

// One tenant's trace as ready-to-send kEvents frames (header included).
struct TenantInput {
  seer::TenantId id = seer::kInvalidTenantId;
  char profile = '?';
  std::vector<std::string> frames;
  std::vector<uint32_t> frame_events;  // events per frame
  uint64_t events = 0;
};

// The profiles tenants take their traces from, in rotation.
constexpr char kProfiles[] = "ABCDEFGHI";

// `events` events of tenant `tenant`'s trace: the machine profile's
// environment and user, history seeded, sessions run until enough events
// exist (the trace is cut there).
std::vector<seer::TraceEvent> TenantTrace(uint64_t seed, seer::TenantId tenant, char profile,
                                          size_t events);

// The namespace TenantTrace's user works in (what investigators read).
std::unique_ptr<seer::SimFilesystem> TenantFilesystem(uint64_t seed, seer::TenantId tenant,
                                                      char profile);

// Cuts `events` into frames of at most `per_frame` events.
TenantInput EncodeTenant(seer::TenantId tenant, char profile,
                         const std::vector<seer::TraceEvent>& events, size_t per_frame);

// Tenants 1..count, profiles in rotation, `events_per_tenant` each.
std::vector<TenantInput> FleetInputs(uint64_t seed, size_t count, size_t events_per_tenant,
                                     size_t per_frame);

// The single laptop of disconnect_refill: machine F with its environment
// scaled so the correlator tracks ~10^4 files.
struct LaptopInputs {
  std::unique_ptr<seer::SimFilesystem> fs;  // investigators read file contents here
  seer::UserEnvironment env;
  std::vector<seer::TraceEvent> events;
  // Event indices, ascending, before which a disconnection begins (the
  // refill point). F's Table 3 count, spaced by DisconnectionSampler draws.
  std::vector<size_t> disconnect_at;
  uint64_t hoard_budget_bytes = 0;  // F's Table 4 hoard
  int disconnections = 0;
};

LaptopInputs MakeLaptop(uint64_t seed, size_t events);

// Per-path size for hoard selection: the paper's geometric distribution
// (deterministic per path), as the simulators use for unknown sizes.
uint64_t FileSizeOf(seer::PathId path);

}  // namespace e2e

#endif  // E2EBENCH_SRC_INPUTS_H_

// seer::client — the hoard service's client library.
//
// One class speaks both planes of the wire protocol (wire.h) over one
// connection: StreamEvents batches trace events into kEvents frames, and
// the typed control calls (Ping/TenantList/.../Shutdown) wrap the
// request/response protocol so remote errors surface as ordinary Status
// values — `client.Checkpoint(7)` fails exactly like the local
// `router.CheckpointTenant(7)` would, message and code intact.
//
// Connect() retries with linear backoff (servers are commonly a beat
// behind their clients at startup); Call() enforces a response deadline
// so a hung server cannot wedge seerctl. The class is deliberately
// synchronous and single-threaded — its consumers (seerctl, the bench,
// tests) want a blocking RPC surface, and pipelining is the server's
// concern, not the caller's.
#ifndef SRC_SERVER_CLIENT_H_
#define SRC_SERVER_CLIENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/server/net.h"
#include "src/server/tenant_router.h"
#include "src/server/wire.h"
#include "src/trace/event.h"
#include "src/util/status.h"

namespace seer {

struct SeerClientOptions {
  // Connection attempts before giving up, retry_delay_ms apart.
  int connect_attempts = 20;
  int retry_delay_ms = 50;
  // Deadline for one control response (kIoError past it).
  int response_timeout_ms = 30'000;
  // Event-frame payload target: a frame is cut once its binary-trace
  // payload reaches this size. Must leave headroom under
  // wire::kMaxFramePayload for the event that crosses the line.
  size_t batch_bytes = 256u << 10;
  // Event frames StreamEvents may leave in flight before inserting a
  // Ping barrier (client-side flow control for very long streams, so an
  // unbounded burst cannot outrun the server by more than k frames).
  // Each barrier makes Ping's promise for the frames before it: applied
  // and in the WAL buffer, not yet synced. 0 = unlimited fire-and-forget,
  // the historical behaviour: delivery is confirmed by the caller's next
  // control call. Per-tenant delivery order is identical either way —
  // frames travel the same connection in order; the barrier only paces
  // them.
  size_t pipeline_depth = 0;
};

class SeerClient {
 public:
  // Connects to a net.h endpoint spec ("unix:/run/seer.sock",
  // "tcp:127.0.0.1:7070", or a bare UDS path).
  static StatusOr<SeerClient> Connect(const std::string& endpoint_spec,
                                      SeerClientOptions options = {});

  SeerClient(SeerClient&&) = default;
  SeerClient& operator=(SeerClient&&) = default;

  // Streams events as tenant `tenant`'s trace, batched into self-contained
  // kEvents frames. Fire-and-forget: delivery is confirmed by the next
  // control call on this connection (frames are processed in order).
  Status StreamEvents(TenantId tenant, const std::vector<TraceEvent>& events);

  // One control round-trip. The returned response's code may be non-OK
  // (server-side failure); transport failures are this StatusOr's status.
  StatusOr<wire::ControlResponse> Call(const wire::ControlRequest& request);

  // --- typed control calls (server-side failures fold into the Status) ----
  // The delivery barrier (wire.h's kPing): once it returns Ok, every event
  // this connection streamed before it has been applied to its tenant's
  // correlator and appended to the tenant's WAL buffer. The WAL is not
  // synced, so those events are not yet durable.
  Status Ping();
  StatusOr<std::vector<TenantId>> TenantList();
  // Stats for one tenant, or for every tenant via kInvalidTenantId.
  StatusOr<std::vector<TenantStats>> Stats(TenantId tenant = kInvalidTenantId);
  Status Evict(TenantId tenant);
  Status Checkpoint(TenantId tenant);
  StatusOr<std::string> ParamsGet(TenantId tenant);
  Status ParamsSet(TenantId tenant, const std::string& text);
  // Asks the server to drain and exit; returns once the server has
  // acknowledged (sealing happens after the ack, before its Serve() returns).
  Status Shutdown();

 private:
  SeerClient(net::OwnedFd fd, SeerClientOptions options)
      : fd_(std::move(fd)), options_(options) {}

  // Call() minus the response decode, shared by the typed helpers.
  StatusOr<wire::ControlResponse> CallVerb(wire::ControlVerb verb, TenantId tenant,
                                           std::string text = {});

  net::OwnedFd fd_;
  SeerClientOptions options_;
  wire::FrameDecoder decoder_;
  uint32_t next_request_id_ = 1;
  // Encode scratch reused across StreamEvents batches: the payload of
  // the frame being built, cleared (capacity kept) per frame.
  std::string scratch_;
};

}  // namespace seer

#endif  // SRC_SERVER_CLIENT_H_

// The hoard service wire format: one framed API for trace ingest and
// control, shared byte-for-byte by the server (service.h) and the client
// library (client.h) so the two can never drift.
//
// Everything on a connection is a length-prefixed frame:
//
//   offset  size  field
//        0     4  magic "SERV" (little-endian u32 0x56524553)
//        4     1  protocol version (kProtocolVersion)
//        5     1  frame type (FrameType)
//        6     2  flags, must be zero (reserved)
//        8     4  channel: TenantId for kEvents, request id otherwise
//       12     4  payload length, <= kMaxFramePayload
//       16     …  payload
//
// kEvents payloads are self-contained binary traces (binary_trace.h,
// including the "SEERBT1\n" magic): each frame re-opens its own path
// dictionary, so a frame decodes without any cross-frame state and a lost
// or reordered connection can never corrupt a later one. The dictionary
// resets cost a little redundancy per frame; senders amortise it by
// batching many events per frame (client.h batches by payload size).
//
// Control requests and responses are ByteWriter-packed structs carrying a
// verb, a tenant, and text; responses carry a StatusCode + message — the
// same error surface as the persistence layer, so a remote failure and a
// local one look identical to callers (Status in, Status out).
//
// FrameDecoder is incremental: feed it whatever the socket produced, get
// back complete frames. "Not enough bytes yet" is an empty optional, not
// an error; actual garbage (bad magic, bad version, oversized length)
// latches a typed error, after which the connection is unrecoverable —
// framing is by length prefix, so there is no resynchronisation point.
#ifndef SRC_SERVER_WIRE_H_
#define SRC_SERVER_WIRE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/server/tenant_router.h"
#include "src/trace/event.h"
#include "src/util/status.h"

namespace seer {
namespace wire {

constexpr uint32_t kFrameMagic = 0x56524553;  // "SERV", little-endian
constexpr uint8_t kProtocolVersion = 1;
constexpr size_t kFrameHeaderSize = 16;
// Cap on a single frame's payload; a length prefix beyond this is treated
// as corruption, bounding what one malformed client can make us buffer.
constexpr uint32_t kMaxFramePayload = 4u << 20;

enum class FrameType : uint8_t {
  kEvents = 1,    // channel = TenantId, payload = binary trace
  kRequest = 2,   // channel = request id, payload = ControlRequest
  kResponse = 3,  // channel = request id, payload = ControlResponse
};

struct Frame {
  FrameType type = FrameType::kEvents;
  uint32_t channel = 0;
  std::string payload;
};

// A frame whose payload still lives in the decoder's read buffer: the
// server's zero-copy ingest path. The view is valid until the next
// Append() on the producing decoder — consume it before reading more
// bytes off the socket.
struct FrameView {
  FrameType type = FrameType::kEvents;
  uint32_t channel = 0;
  std::string_view payload;
};

// Header + payload, ready to write to a socket.
std::string EncodeFrame(FrameType type, uint32_t channel, std::string_view payload);

// Incremental frame parser over a connection's byte stream.
class FrameDecoder {
 public:
  void Append(std::string_view bytes) {
    // Compact before growing, never after a frame is handed out: any
    // FrameView from NextView() stays valid until this call, which is
    // the natural consume-then-read boundary of the serve loop.
    if (pos_ > 4096 && pos_ >= buffer_.size() / 2) {
      buffer_.erase(0, pos_);
      pos_ = 0;
    }
    buffer_.append(bytes.data(), bytes.size());
  }

  // A complete frame; an empty optional when more bytes are needed; or a
  // latched typed error once the stream is malformed (bad magic/version/
  // type, nonzero flags, oversized length).
  StatusOr<std::optional<Frame>> Next();

  // Like Next(), but the payload is a view into the decoder's buffer —
  // no copy. Valid until the next Append(); Next() and NextView() may be
  // mixed freely on one decoder (they share the same cursor).
  StatusOr<std::optional<FrameView>> NextView();

  // Bytes buffered but not yet consumed by a returned frame.
  size_t buffered() const { return buffer_.size() - pos_; }
  // True when a connection close here is clean (no partial frame). The
  // caller maps EOF at a non-boundary to kDataLoss (mid-frame disconnect).
  bool AtFrameBoundary() const { return status_.ok() && buffered() == 0; }

  const Status& status() const { return status_; }

 private:
  // Shared header scan: validates and fills the header fields when a
  // complete frame is buffered (*complete = true), reports "need more
  // bytes" via *complete = false, or latches and returns a typed error.
  Status Scan(FrameType* type, uint32_t* channel, uint32_t* length, bool* complete);

  std::string buffer_;
  size_t pos_ = 0;  // consumed prefix; compacted as bytes arrive
  Status status_;
};

// --- event frames -------------------------------------------------------------

// A self-contained binary trace (with header) holding `events`.
std::string EncodeEvents(const std::vector<TraceEvent>& events);

// Decodes an event payload. A payload that ends mid-event is kDataLoss
// (a torn frame), exactly like a crash-truncated trace file.
StatusOr<std::vector<TraceEvent>> DecodeEvents(std::string_view payload);

// Zero-copy kEvents decoder: parses a self-contained binary trace payload
// straight out of the frame bytes into InternedEvents, with no
// istringstream, no per-event path strings, and no per-frame vectors —
// storage is reused across Decode() calls, so steady-state decoding of
// same-shaped frames allocates nothing. Each dictionary entry is interned
// into GlobalPaths() exactly once, at its definition; events carry the
// resulting PathIds.
//
// The error surface is byte-for-byte the same as BinaryTraceReader (and
// therefore DecodeEvents): kDataLoss naming the field for torn or corrupt
// payloads, kInvalidArgument for a bad magic. A failed Decode() leaves
// events() holding whatever decoded before the failure; callers treating
// the payload as atomic (the server does) must ignore it on error.
class EventArena {
 public:
  Status Decode(std::string_view payload);

  const std::vector<InternedEvent>& events() const { return events_; }

 private:
  Status GetVarint(const char* field, uint64_t* value);
  Status GetZigzag(const char* field, int64_t* value);
  Status GetPath(const char* field, PathId* out);

  // Cursor over the payload being decoded; meaningful only inside Decode.
  std::string_view data_;
  size_t pos_ = 0;
  uint64_t last_seq_ = 0;
  Time last_time_ = 0;
  size_t events_read_ = 0;

  // Reused across frames; clear() keeps capacity.
  std::vector<InternedEvent> events_;
  std::vector<PathId> dict_;
};

// --- control protocol ---------------------------------------------------------

enum class ControlVerb : uint8_t {
  // The delivery barrier. When the server answers a Ping, every frame sent
  // before it on the same connection has been decoded, passed through its
  // tenant's observer, applied to the tenant's correlator and appended to
  // the tenant's WAL buffer. Nothing more: the WAL is not synced (a
  // checkpoint syncs it), so a crash can still lose those events. The
  // shard that reads the connection answers it inline, without the
  // router, so it stays cheap while the fleet streams.
  kPing = 1,
  kTenantList = 2,
  kTenantStats = 3,  // tenant = kInvalidTenantId means "all tenants"
  kTenantEvict = 4,
  kTenantCheckpoint = 5,
  kParamsGet = 6,
  kParamsSet = 7,  // text = params file body (params_io format)
  kShutdown = 8,
};

std::string_view ControlVerbName(ControlVerb verb);

struct ControlRequest {
  ControlVerb verb = ControlVerb::kPing;
  TenantId tenant = kInvalidTenantId;
  std::string text;  // kParamsSet: the params file body
};

struct ControlResponse {
  StatusCode code = StatusCode::kOk;
  std::string message;
  ControlVerb verb = ControlVerb::kPing;  // echo of the request verb
  std::vector<TenantId> tenants;          // kTenantList
  std::vector<TenantStats> stats;         // kTenantStats
  std::string text;                       // kParamsGet: params file body

  // The response's code+message as a Status (Ok for kOk).
  Status ToStatus() const;
};

std::string EncodeControlRequest(const ControlRequest& request);
StatusOr<ControlRequest> DecodeControlRequest(std::string_view payload);

std::string EncodeControlResponse(const ControlResponse& response);
StatusOr<ControlResponse> DecodeControlResponse(std::string_view payload);

}  // namespace wire
}  // namespace seer

#endif  // SRC_SERVER_WIRE_H_

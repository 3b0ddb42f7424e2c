#ifndef TC_RPC_WIRE_H_
#define TC_RPC_WIRE_H_

#include <cstdint>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "tc/cloud/infrastructure.h"
#include "tc/cloud/txn.h"
#include "tc/common/bytes.h"
#include "tc/common/codec.h"
#include "tc/common/overload.h"
#include "tc/common/result.h"
#include "tc/net/transport.h"
#include "tc/obs/trace.h"

namespace tc::rpc {

// ---------------------------------------------------------------------------
// Frame layout
// ---------------------------------------------------------------------------
//
// Every message on the wire is one length-prefixed frame:
//
//   offset size field
//        0    4 magic        "TCW1" (0x54435731, little-endian u32)
//        4    2 version      kWireVersion; a mismatch rejects the frame
//        6    1 op           RpcOp of the request (responses echo it)
//        7    1 flags        bit 0: response; bit 1: pushback (overload);
//                            bits 2-3: request criticality (0 normal,
//                            1 critical, 2 background; 3 is malformed)
//        8    8 request_id   client-chosen; responses echo it (pipelining)
//       16    8 trace_id     caller's obs::TraceContext, propagated so the
//       24    8 span_id      server dispatch parents its spans under the
//       32    8 parent_id    cell operation that issued the RPC
//       40    4 payload_size bytes following the header; capped
//       44    4 budget_us    request: caller's remaining deadline budget in
//                            microseconds (0 = no deadline) — deadline
//                            propagation rides next to trace context;
//                            response with the pushback flag: the server's
//                            retry-after hint. Was `reserved` (always 0) in
//                            the original layout, so old frames decode as
//                            "no deadline / no hint".
//       48    - payload      the op's request or reply (op table below)
//
// All integers little-endian fixed width (BinaryWriter's native layout).
// The header is fixed-size so a reader can frame the stream with exactly
// two reads and reject garbage before buffering anything unbounded.

inline constexpr uint32_t kWireMagic = 0x54435731;  // "1WCT" on the wire.
inline constexpr uint16_t kWireVersion = 1;
inline constexpr size_t kFrameHeaderBytes = 48;
/// Upper bound on one frame's payload; a header asking for more is
/// malformed (protects the reader from attacker-chosen allocations).
inline constexpr uint32_t kMaxPayloadBytes = 64u << 20;

inline constexpr uint8_t kFlagResponse = 0x1;
/// Overload pushback: on a response, the server shed this request and
/// header.budget_us carries its retry-after hint in microseconds.
inline constexpr uint8_t kFlagPushback = 0x2;
/// Criticality of the request rides in flag bits 2-3. Bit value 0 must map
/// to kNormal so a zeroed legacy flags field never grants admission bypass.
inline constexpr uint8_t kFlagCriticalityShift = 2;
inline constexpr uint8_t kFlagCriticalityMask = 0x0C;

/// Operation selector carried in the frame header.
enum class RpcOp : uint8_t {
  kPing = 0,          ///< Health check / connection probe.
  kPutBlobBatch = 1,  ///< Tokened batch put -> BatchPutOutcome.
  kGetBlob = 2,       ///< Latest blob -> payload + delay.
  kGetSnapshot = 3,   ///< Committed horizon -> SnapshotDescriptor + delay.
  kGetAtSnapshot = 4, ///< Snapshot read -> SnapshotRead + delay.
  kCommitTxn = 5,     ///< Multi-key commit -> TxnOutcome.
  kReportTelemetry = 6,  ///< Sequenced telemetry frame -> applied/last_seq.
  kScrapeTelemetry = 7,  ///< Fleet telemetry JSON scrape.
};

struct FrameHeader {
  uint16_t version = kWireVersion;
  RpcOp op = RpcOp::kPing;
  uint8_t flags = 0;
  uint64_t request_id = 0;
  obs::TraceContext trace;
  uint32_t payload_size = 0;
  /// Request: remaining deadline budget (µs, 0 = none); response with the
  /// pushback flag: server retry-after hint (µs).
  uint32_t budget_us = 0;

  bool response() const { return (flags & kFlagResponse) != 0; }
  bool pushback() const { return (flags & kFlagPushback) != 0; }
  Criticality criticality() const {
    return static_cast<Criticality>((flags & kFlagCriticalityMask) >>
                                    kFlagCriticalityShift);
  }
  void set_criticality(Criticality c) {
    flags = static_cast<uint8_t>(
        (flags & ~kFlagCriticalityMask) |
        ((static_cast<uint8_t>(c) << kFlagCriticalityShift) &
         kFlagCriticalityMask));
  }
};

/// One whole frame in one buffer — `header` with payload_size set from
/// `body`, then `body` — so it leaves in one send (with TCP_NODELAY a split
/// header/payload write is two packets on the wire).
Bytes EncodeFrame(FrameHeader header, const Bytes& body);

/// Parses and validates a header in place: magic, version, known op,
/// criticality bits, payload cap. `data` must hold at least
/// kFrameHeaderBytes. Fails with kCorruption on a malformed header and
/// kUnimplemented on a version mismatch (so the server can distinguish
/// "garbage" from "future peer").
Result<FrameHeader> DecodeFrameHeader(const uint8_t* data, size_t size);

/// Writes all of `bytes` to a stream socket (EINTR-safe, never SIGPIPE).
bool SendAll(int fd, const Bytes& bytes);

/// Buffered reader of the frames arriving on one stream socket — the one
/// parser behind the server's request reader and the client's response
/// reader. One recv can carry many pipelined frames, so the syscall and
/// the reader wake-up amortize across a burst.
class FrameReader {
 public:
  /// Frames in the wrong direction (`responses` says which one the stream
  /// carries) or with a payload above `max_payload` are malformed; they
  /// are rejected from the header alone, before the payload is buffered.
  FrameReader(int fd, bool responses, uint32_t max_payload = kMaxPayloadBytes)
      : fd_(fd), responses_(responses), max_payload_(max_payload) {}

  /// Blocks until the next whole frame is buffered. Fails kUnavailable when
  /// the peer closed or the socket failed, and with the header's decode
  /// status (kCorruption, kUnimplemented) when the stream cannot be framed.
  Status Next(FrameHeader* header, Bytes* payload);

 private:
  int fd_;
  bool responses_;
  uint32_t max_payload_;
  std::vector<uint8_t> buf_;
  size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Value codecs
// ---------------------------------------------------------------------------
// One codec per type that crosses the wire. Write appends a value; Read
// decodes one and fails with a non-OK status on truncated or inconsistent
// input — it never over-reads and never trusts an embedded count further
// than the bytes actually present. kMinBytes is the fewest bytes a value
// encodes to: a vector's count is checked against it before anything is
// reserved, so a fuzzed count never drives an allocation.

template <typename T>
struct Codec;

/// Moves a reader result into `*out`.
template <typename T>
Status Take(Result<T> got, T* out) {
  if (!got.ok()) return got.status();
  *out = std::move(got).value();
  return Status::OK();
}

/// Reads one value per pointer, in order, stopping at the first failure.
template <typename... Ts>
Status ReadAll(BinaryReader& r, Ts*... values) {
  Status status;
  (void)((status = Codec<Ts>::Read(r, values)).ok() && ...);
  return status;
}

/// A value BinaryWriter and BinaryReader encode natively.
template <size_t kMin, auto kPut, auto kGet>
struct Primitive {
  static constexpr size_t kMinBytes = kMin;
  template <typename T>
  static void Write(BinaryWriter& w, const T& v) {
    (w.*kPut)(v);
  }
  template <typename T>
  static Status Read(BinaryReader& r, T* v) {
    return Take((r.*kGet)(), v);
  }
};

template <>
struct Codec<uint64_t>
    : Primitive<8, &BinaryWriter::PutU64, &BinaryReader::GetU64> {};
template <>
struct Codec<bool>
    : Primitive<1, &BinaryWriter::PutBool, &BinaryReader::GetBool> {};
/// Varint length + bytes (also the per-item ack vector: one byte each).
template <>
struct Codec<Bytes>
    : Primitive<1, &BinaryWriter::PutBytes, &BinaryReader::GetBytes> {};
template <>
struct Codec<std::string>
    : Primitive<1, &BinaryWriter::PutString, &BinaryReader::GetString> {};

/// Code byte + message; an unknown code is corruption. The RETURNED status
/// of Read reports decode success, not the decoded value.
template <>
struct Codec<Status> {
  static constexpr size_t kMinBytes = 2;
  static void Write(BinaryWriter& w, const Status& v);
  static Status Read(BinaryReader& r, Status* v);
};

/// Varint count, then the elements.
template <typename T>
struct Codec<std::vector<T>> {
  static constexpr size_t kMinBytes = 1;
  static void Write(BinaryWriter& w, const std::vector<T>& v) {
    w.PutVarint(v.size());
    for (const T& item : v) Codec<T>::Write(w, item);
  }
  static Status Read(BinaryReader& r, std::vector<T>* v) {
    auto count = r.GetVarint();
    if (!count.ok()) return count.status();
    TC_RETURN_IF_ERROR(r.CheckCount(count.value(), Codec<T>::kMinBytes));
    v->clear();
    v->reserve(count.value());
    for (uint64_t i = 0; i < count.value(); ++i) {
      T item{};
      TC_RETURN_IF_ERROR(Codec<T>::Read(r, &item));
      v->push_back(std::move(item));
    }
    return Status::OK();
  }
};

template <typename C, typename T>
T MemberType(T C::*);

/// A struct's codec: the listed members, in order, each by its own codec.
template <auto... kMembers>
struct Fields {
  template <auto kMember>
  using Field = Codec<decltype(MemberType(kMember))>;

  static constexpr size_t kMinBytes = (Field<kMembers>::kMinBytes + ...);
  template <typename C>
  static void Write(BinaryWriter& w, const C& v) {
    (Field<kMembers>::Write(w, v.*kMembers), ...);
  }
  template <typename C>
  static Status Read(BinaryReader& r, C* v) {
    return ReadAll(r, &(v->*kMembers)...);
  }
};

template <typename A, typename B>
struct Codec<std::pair<A, B>>
    : Fields<&std::pair<A, B>::first, &std::pair<A, B>::second> {};
template <>
struct Codec<cloud::SnapshotDescriptor>
    : Fields<&cloud::SnapshotDescriptor::base_seq,
             &cloud::SnapshotDescriptor::extra_seqs,
             &cloud::SnapshotDescriptor::shard_high> {};
template <>
struct Codec<cloud::SnapshotRead>
    : Fields<&cloud::SnapshotRead::data, &cloud::SnapshotRead::version,
             &cloud::SnapshotRead::commit_seq> {};
template <>
struct Codec<cloud::TxnRead>
    : Fields<&cloud::TxnRead::id, &cloud::TxnRead::version> {};
template <>
struct Codec<cloud::TxnWrite>
    : Fields<&cloud::TxnWrite::id, &cloud::TxnWrite::data,
             &cloud::TxnWrite::base_version> {};
template <>
struct Codec<cloud::TxnRequest>
    : Fields<&cloud::TxnRequest::token, &cloud::TxnRequest::snapshot,
             &cloud::TxnRequest::reads, &cloud::TxnRequest::writes> {};

// An outcome's codec is its body: the reply codec frames it with the
// status before and the delay (and fault ordinal) after.
using BatchPutOutcome = cloud::CloudInfrastructure::BatchPutOutcome;
using ReportOutcome = obs::TelemetryHub::ReportOutcome;
template <>
struct Codec<BatchPutOutcome>
    : Fields<&BatchPutOutcome::versions, &BatchPutOutcome::acked> {};
template <>
struct Codec<cloud::TxnOutcome>
    : Fields<&cloud::TxnOutcome::committed, &cloud::TxnOutcome::replayed,
             &cloud::TxnOutcome::commit_seq, &cloud::TxnOutcome::versions,
             &cloud::TxnOutcome::conflict_id> {};
template <>
struct Codec<ReportOutcome>
    : Fields<&ReportOutcome::applied, &ReportOutcome::duplicate,
             &ReportOutcome::last_seq> {};

// ---------------------------------------------------------------------------
// Request and reply codecs
// ---------------------------------------------------------------------------

/// A request is the endpoint's arguments in order and fills the payload
/// exactly (trailing bytes are corruption).
template <typename Request>
struct RequestCodec;

template <typename... Args>
struct RequestCodec<std::tuple<Args...>> {
  static void Write(BinaryWriter& w, const Args&... args) {
    (Codec<Args>::Write(w, args), ...);
  }
  static Status Read(BinaryReader& r, std::tuple<Args...>* request) {
    return std::apply([&](Args&... args) { return ReadAll(r, &args...); },
                      *request);
  }
};

/// A request of one opaque byte string (a ping, a telemetry frame) is the
/// payload itself: its receiver validates it, not the wire.
template <>
struct RequestCodec<std::tuple<Bytes>> {
  static void Write(BinaryWriter& w, const Bytes& payload) { w.PutRaw(payload); }
  static Status Read(BinaryReader& r, std::tuple<Bytes>* request) {
    return Take(r.GetRaw(r.remaining()), &std::get<0>(*request));
  }
};

/// A reply is the status, the body, delay_us, then fault_ordinal where the
/// outcome carries one. Outcome structs hold the status (and the delay,
/// where they have it) themselves; the rest travel beside them.
template <typename Reply>
struct ReplyCodec {
  static constexpr bool kCarriesDelay = requires(Reply r) { r.delay_us; };
  static constexpr bool kCarriesOrdinal =
      requires(Reply r) { r.fault_ordinal; };

  static void Write(BinaryWriter& w, const Reply& reply, uint32_t delay_us) {
    Codec<Status>::Write(w, reply.status);
    Codec<Reply>::Write(w, reply);
    if constexpr (kCarriesDelay) delay_us = reply.delay_us;
    w.PutU32(delay_us);
    if constexpr (kCarriesOrdinal) w.PutU64(reply.fault_ordinal);
  }
  static Result<Reply> Read(BinaryReader& r, uint32_t* delay_us) {
    Reply reply;
    TC_RETURN_IF_ERROR(Codec<Status>::Read(r, &reply.status));
    TC_RETURN_IF_ERROR(Codec<Reply>::Read(r, &reply));
    TC_RETURN_IF_ERROR(Take(r.GetU32(), delay_us));
    if constexpr (kCarriesDelay) reply.delay_us = *delay_us;
    if constexpr (kCarriesOrdinal) {
      TC_RETURN_IF_ERROR(Take(r.GetU64(), &reply.fault_ordinal));
    }
    return reply;
  }
  static Reply Failed(const Status& status) {
    Reply reply;
    reply.status = status;
    return reply;
  }
};

/// A Result<T> reply: the body is T, default-constructed on an error.
template <typename T>
struct ReplyCodec<Result<T>> {
  static void Write(BinaryWriter& w, const Result<T>& reply,
                    uint32_t delay_us) {
    Codec<Status>::Write(w, reply.status());
    static const T kEmpty{};
    Codec<T>::Write(w, reply.ok() ? reply.value() : kEmpty);
    w.PutU32(delay_us);
  }
  static Result<Result<T>> Read(BinaryReader& r, uint32_t* delay_us) {
    Status status;
    T value{};
    TC_RETURN_IF_ERROR(ReadAll(r, &status, &value));
    TC_RETURN_IF_ERROR(Take(r.GetU32(), delay_us));
    if (!status.ok()) return Result<T>(status);
    return Result<T>(std::move(value));
  }
  static Result<T> Failed(const Status& status) { return status; }
};

/// The ping's echo: the payload itself, no status (empty when refused).
template <>
struct ReplyCodec<Bytes> {
  static void Write(BinaryWriter& w, const Bytes& reply, uint32_t) {
    w.PutRaw(reply);
  }
  static Result<Bytes> Read(BinaryReader& r, uint32_t*) {
    return r.GetRaw(r.remaining());
  }
  static Bytes Failed(const Status&) { return Bytes(); }
};

// ---------------------------------------------------------------------------
// The op table
// ---------------------------------------------------------------------------
// One description per op: its RpcOp, metric/log name, request type (the
// endpoint's arguments), reply type and provider endpoint — the
// net::CloudTransport member it stands for (a free function for the ping,
// which never reaches the provider). The server's dispatch, the socket
// transport's methods and the status-only replies all come from these.

struct PingOp {
  static constexpr RpcOp kOp = RpcOp::kPing;
  static constexpr const char* kName = "ping";
  using Request = std::tuple<Bytes>;
  using Reply = Bytes;
  static Bytes Echo(net::CloudTransport&, const Bytes& payload) {
    return payload;
  }
  static constexpr auto kEndpoint = &Echo;
};

struct PutBlobBatchOp {
  static constexpr RpcOp kOp = RpcOp::kPutBlobBatch;
  static constexpr const char* kName = "put_blob_batch";
  using Request = std::tuple<std::vector<std::pair<std::string, Bytes>>,
                             std::vector<std::string>>;
  using Reply = BatchPutOutcome;
  static constexpr auto kEndpoint = &net::CloudTransport::PutBlobBatch;
  /// Tokens are per-item; a mismatched count would desync the provider's
  /// idempotency table, so it is a protocol error, not the server's guess.
  static Status Check(const Request& request) {
    const auto& [items, tokens] = request;
    return tokens.empty() || tokens.size() == items.size()
               ? Status::OK()
               : Status::Corruption("token count != item count");
  }
};

struct GetBlobOp {
  static constexpr RpcOp kOp = RpcOp::kGetBlob;
  static constexpr const char* kName = "get_blob";
  using Request = std::tuple<std::string>;
  using Reply = Result<Bytes>;
  static constexpr auto kEndpoint = &net::CloudTransport::GetBlob;
};

struct GetSnapshotOp {
  static constexpr RpcOp kOp = RpcOp::kGetSnapshot;
  static constexpr const char* kName = "get_snapshot";
  using Request = std::tuple<>;
  using Reply = Result<cloud::SnapshotDescriptor>;
  static constexpr auto kEndpoint = &net::CloudTransport::GetSnapshot;
};

struct GetAtSnapshotOp {
  static constexpr RpcOp kOp = RpcOp::kGetAtSnapshot;
  static constexpr const char* kName = "get_at_snapshot";
  using Request = std::tuple<std::string, cloud::SnapshotDescriptor>;
  using Reply = Result<cloud::SnapshotRead>;
  static constexpr auto kEndpoint = &net::CloudTransport::GetAtSnapshot;
};

struct CommitTxnOp {
  static constexpr RpcOp kOp = RpcOp::kCommitTxn;
  static constexpr const char* kName = "commit_txn";
  using Request = std::tuple<cloud::TxnRequest>;
  using Reply = cloud::TxnOutcome;
  static constexpr auto kEndpoint = &net::CloudTransport::CommitTxn;
};

struct ReportTelemetryOp {
  static constexpr RpcOp kOp = RpcOp::kReportTelemetry;
  static constexpr const char* kName = "report_telemetry";
  /// An obs::EncodeTelemetryFrame frame verbatim; the hub decodes and
  /// validates it, and a bad frame is a non-OK outcome, not a bad payload.
  using Request = std::tuple<Bytes>;
  using Reply = ReportOutcome;
  static constexpr auto kEndpoint = &net::CloudTransport::ReportTelemetry;
};

struct ScrapeTelemetryOp {
  static constexpr RpcOp kOp = RpcOp::kScrapeTelemetry;
  static constexpr const char* kName = "scrape_telemetry";
  using Request = std::tuple<>;
  using Reply = Result<std::string>;
  static constexpr auto kEndpoint = &net::CloudTransport::ScrapeTelemetry;
};

/// Every op description, in RpcOp order.
using RpcOps = std::tuple<PingOp, PutBlobBatchOp, GetBlobOp, GetSnapshotOp,
                          GetAtSnapshotOp, CommitTxnOp, ReportTelemetryOp,
                          ScrapeTelemetryOp>;
template <size_t kIndex>
using OpAt = std::tuple_element_t<kIndex, RpcOps>;

/// Number of distinct RpcOp values (per-op metric arrays are this long).
inline constexpr size_t kRpcOpCount = std::tuple_size_v<RpcOps>;

/// Calls `f.template operator()<Op>()` for every op description, in RpcOp
/// order.
template <typename F>
void ForEachOp(F&& f) {
  [&]<size_t... kIndex>(std::index_sequence<kIndex...>) {
    (f.template operator()<OpAt<kIndex>>(), ...);
  }(std::make_index_sequence<kRpcOpCount>{});
}

const char* RpcOpName(RpcOp op);
bool RpcOpKnown(uint8_t op);

template <typename Op, typename... Args>
Bytes EncodeRequest(const Args&... args) {
  BinaryWriter w;
  RequestCodec<typename Op::Request>::Write(w, args...);
  return w.Take();
}

template <typename Op>
Result<typename Op::Request> DecodeRequest(const Bytes& payload) {
  BinaryReader r(payload);
  typename Op::Request request;
  TC_RETURN_IF_ERROR(RequestCodec<typename Op::Request>::Read(r, &request));
  if (!r.AtEnd()) return Status::Corruption("trailing bytes after payload");
  if constexpr (requires { Op::Check(request); }) {
    TC_RETURN_IF_ERROR(Op::Check(request));
  }
  return request;
}

template <typename Op>
Bytes EncodeReply(const typename Op::Reply& reply, uint32_t delay_us) {
  BinaryWriter w;
  ReplyCodec<typename Op::Reply>::Write(w, reply, delay_us);
  return w.Take();
}

/// Decodes a reply payload; `*delay_us` receives its injected delay.
template <typename Op>
Result<typename Op::Reply> DecodeReply(const Bytes& payload,
                                       uint32_t* delay_us) {
  BinaryReader r(payload);
  auto reply = ReplyCodec<typename Op::Reply>::Read(r, delay_us);
  if (reply.ok() && !r.AtEnd()) {
    return Status::Corruption("trailing bytes after payload");
  }
  return reply;
}

/// The server half of one exchange: decodes `payload` as `op`'s request,
/// runs it on `provider` and returns the encoded reply. Fails with the
/// decode status, without executing anything, on a malformed payload.
Result<Bytes> Serve(RpcOp op, net::CloudTransport& provider,
                    const Bytes& payload);

/// The reply payload of `op` carrying only `status` (every other field
/// zero/default) — how the server answers a request it refused to execute
/// (admission reject, expired deadline) without running the op. The ping's
/// is empty; its status travels in the header flags only.
Bytes EncodeStatusOnlyReply(RpcOp op, const Status& status);

}  // namespace tc::rpc

#endif  // TC_RPC_WIRE_H_

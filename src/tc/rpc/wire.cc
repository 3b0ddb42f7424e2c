#include "tc/rpc/wire.h"

#include <sys/socket.h>

#include <cerrno>
#include <cstring>
#include <functional>

namespace tc::rpc {

namespace {

constexpr uint8_t kMaxStatusCode = static_cast<uint8_t>(StatusCode::kAborted);

/// Little-endian fixed-width load/store at a header offset.
template <typename T>
T Load(const uint8_t* p) {
  T v = 0;
  for (size_t i = 0; i < sizeof(T); ++i) v |= static_cast<T>(p[i]) << (8 * i);
  return v;
}
template <typename T>
void Store(uint8_t* p, T v) {
  for (size_t i = 0; i < sizeof(T); ++i) p[i] = static_cast<uint8_t>(v >> (8 * i));
}

void WriteHeader(uint8_t* out, const FrameHeader& h) {
  Store<uint32_t>(out, kWireMagic);
  Store<uint16_t>(out + 4, h.version);
  out[6] = static_cast<uint8_t>(h.op);
  out[7] = h.flags;
  Store<uint64_t>(out + 8, h.request_id);
  Store<uint64_t>(out + 16, h.trace.trace_id);
  Store<uint64_t>(out + 24, h.trace.span_id);
  Store<uint64_t>(out + 32, h.trace.parent_id);
  Store<uint32_t>(out + 40, h.payload_size);
  Store<uint32_t>(out + 44, h.budget_us);
}

/// One row of the op table, instantiated from an op description.
struct OpEntry {
  const char* name;
  Result<Bytes> (*serve)(net::CloudTransport& provider, const Bytes& payload);
  Bytes (*status_only)(const Status& status);
};

template <typename Op>
Result<Bytes> ServeOp(net::CloudTransport& provider, const Bytes& payload) {
  auto request = DecodeRequest<Op>(payload);
  if (!request.ok()) return request.status();
  // Runs the request on the op's endpoint; the endpoints that report an
  // injected delay through an out-param get one.
  uint32_t delay_us = 0;
  auto call = [&](const auto&... args) -> typename Op::Reply {
    if constexpr (std::is_invocable_v<decltype(Op::kEndpoint),
                                      net::CloudTransport&,
                                      decltype(args)..., uint32_t*>) {
      return std::invoke(Op::kEndpoint, provider, args..., &delay_us);
    } else {
      return std::invoke(Op::kEndpoint, provider, args...);
    }
  };
  const typename Op::Reply reply = std::apply(call, request.value());
  return EncodeReply<Op>(reply, delay_us);
}

template <typename Op>
Bytes StatusOnlyOp(const Status& status) {
  return EncodeReply<Op>(ReplyCodec<typename Op::Reply>::Failed(status), 0);
}

template <size_t... kIndex>
constexpr std::array<OpEntry, kRpcOpCount> MakeOpTable(
    std::index_sequence<kIndex...>) {
  static_assert(((static_cast<size_t>(OpAt<kIndex>::kOp) == kIndex) && ...),
                "RpcOps must list the op descriptions in RpcOp order");
  return {OpEntry{OpAt<kIndex>::kName, &ServeOp<OpAt<kIndex>>,
                  &StatusOnlyOp<OpAt<kIndex>>}...};
}

constexpr std::array<OpEntry, kRpcOpCount> kOpTable =
    MakeOpTable(std::make_index_sequence<kRpcOpCount>{});

}  // namespace

const char* RpcOpName(RpcOp op) {
  return RpcOpKnown(static_cast<uint8_t>(op))
             ? kOpTable[static_cast<size_t>(op)].name
             : "unknown";
}

bool RpcOpKnown(uint8_t op) { return op < kRpcOpCount; }

Bytes EncodeFrame(FrameHeader header, const Bytes& body) {
  header.payload_size = static_cast<uint32_t>(body.size());
  Bytes frame(kFrameHeaderBytes + body.size());
  WriteHeader(frame.data(), header);
  if (!body.empty()) {
    std::memcpy(frame.data() + kFrameHeaderBytes, body.data(), body.size());
  }
  return frame;
}

Result<FrameHeader> DecodeFrameHeader(const uint8_t* data, size_t size) {
  if (size < kFrameHeaderBytes) {
    return Status::Corruption("short frame header");
  }
  if (Load<uint32_t>(data) != kWireMagic) {
    return Status::Corruption("bad frame magic");
  }
  FrameHeader h;
  h.version = Load<uint16_t>(data + 4);
  const uint8_t op = data[6];
  h.flags = data[7];
  h.request_id = Load<uint64_t>(data + 8);
  h.trace.trace_id = Load<uint64_t>(data + 16);
  h.trace.span_id = Load<uint64_t>(data + 24);
  h.trace.parent_id = Load<uint64_t>(data + 32);
  h.payload_size = Load<uint32_t>(data + 40);
  h.budget_us = Load<uint32_t>(data + 44);
  if (h.version != kWireVersion) {
    return Status::Unimplemented("wire version mismatch");
  }
  if (!RpcOpKnown(op)) {
    return Status::Corruption("unknown rpc op");
  }
  h.op = static_cast<RpcOp>(op);
  // Criticality bit pattern 3 names no class — reject it as corruption
  // rather than letting a garbage frame pick a band by accident.
  if (h.criticality() > Criticality::kBackground) {
    return Status::Corruption("unknown criticality class in frame flags");
  }
  if (h.payload_size > kMaxPayloadBytes) {
    return Status::Corruption("frame payload exceeds cap");
  }
  return h;
}

bool SendAll(int fd, const Bytes& bytes) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    // MSG_NOSIGNAL: a peer that vanished must surface as EPIPE, not kill
    // the process with SIGPIPE.
    ssize_t r =
        ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (r > 0) {
      sent += static_cast<size_t>(r);
      continue;
    }
    if (r < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

Status FrameReader::Next(FrameHeader* header, Bytes* payload) {
  for (;;) {
    if (buf_.size() - pos_ >= kFrameHeaderBytes) {
      auto h = DecodeFrameHeader(buf_.data() + pos_, kFrameHeaderBytes);
      if (!h.ok()) return h.status();
      if (h->response() != responses_ || h->payload_size > max_payload_) {
        return Status::Corruption("frame direction or size not accepted");
      }
      const size_t need = kFrameHeaderBytes + h->payload_size;
      if (buf_.size() - pos_ >= need) {
        *header = h.value();
        payload->assign(buf_.begin() + pos_ + kFrameHeaderBytes,
                        buf_.begin() + pos_ + need);
        pos_ += need;
        return Status::OK();
      }
    }
    // Frame still arriving: drop what was consumed, then read more.
    if (pos_ > 0) {
      buf_.erase(buf_.begin(), buf_.begin() + pos_);
      pos_ = 0;
    }
    constexpr size_t kReadChunk = 64 * 1024;
    const size_t old_size = buf_.size();
    buf_.resize(old_size + kReadChunk);
    ssize_t r = ::recv(fd_, buf_.data() + old_size, kReadChunk, 0);
    buf_.resize(old_size + (r > 0 ? static_cast<size_t>(r) : 0));
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) return Status::Unavailable("connection closed");
  }
}

void Codec<Status>::Write(BinaryWriter& w, const Status& v) {
  w.PutU8(static_cast<uint8_t>(v.code()));
  w.PutString(v.message());
}

Status Codec<Status>::Read(BinaryReader& r, Status* v) {
  auto code = r.GetU8();
  if (!code.ok()) return code.status();
  if (code.value() > kMaxStatusCode) {
    return Status::Corruption("unknown status code on wire");
  }
  auto msg = r.GetString();
  if (!msg.ok()) return msg.status();
  *v = Status(static_cast<StatusCode>(code.value()), std::move(msg).value());
  return Status::OK();
}

Result<Bytes> Serve(RpcOp op, net::CloudTransport& provider,
                    const Bytes& payload) {
  return kOpTable[static_cast<size_t>(op)].serve(provider, payload);
}

Bytes EncodeStatusOnlyReply(RpcOp op, const Status& status) {
  return kOpTable[static_cast<size_t>(op)].status_only(status);
}

}  // namespace tc::rpc

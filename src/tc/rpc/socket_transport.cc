#include "tc/rpc/socket_transport.h"

namespace tc::rpc {

namespace {

/// One exchange of `Op` on `pool`: encodes `args`, calls, decodes the
/// reply; `*delay_us` (when non-null) receives the reply's injected delay.
template <typename Op, typename... Args>
typename Op::Reply Exchange(RpcClientPool& pool, uint32_t* delay_us,
                            const Args&... args) {
  using Codec = ReplyCodec<typename Op::Reply>;
  auto wire = pool.Call(Op::kOp, EncodeRequest<Op>(args...));
  if (!wire.ok()) return Codec::Failed(wire.status());
  uint32_t delay = 0;
  auto reply = DecodeReply<Op>(wire.value(), &delay);
  if (!reply.ok()) {
    // A well-formed frame whose payload fails to decode means the transport
    // scrambled bytes, not that the provider answered — degrade to the
    // retryable code instead of inventing a definitive outcome.
    return Codec::Failed(Status::Unavailable("rpc response undecodable: " +
                                             reply.status().ToString()));
  }
  if (delay_us != nullptr) *delay_us = delay;
  return std::move(reply).value();
}

}  // namespace

SocketTransport::SocketTransport(const std::string& host, uint16_t port,
                                 RpcClientPool::Options pool_options)
    : pool_([&] {
        pool_options.host = host;
        pool_options.port = port;
        return pool_options;
      }()) {}

SocketTransport::BatchPutOutcome SocketTransport::PutBlobBatch(
    const std::vector<std::pair<std::string, Bytes>>& items,
    const std::vector<std::string>& tokens) {
  return Exchange<PutBlobBatchOp>(pool_, nullptr, items, tokens);
}

Result<Bytes> SocketTransport::GetBlob(const std::string& id,
                                       uint32_t* delay_us) {
  return Exchange<GetBlobOp>(pool_, delay_us, id);
}

Result<cloud::SnapshotDescriptor> SocketTransport::GetSnapshot(
    uint32_t* delay_us) {
  return Exchange<GetSnapshotOp>(pool_, delay_us);
}

Result<cloud::SnapshotRead> SocketTransport::GetAtSnapshot(
    const std::string& id, const cloud::SnapshotDescriptor& snap,
    uint32_t* delay_us) {
  return Exchange<GetAtSnapshotOp>(pool_, delay_us, id, snap);
}

cloud::TxnOutcome SocketTransport::CommitTxn(const cloud::TxnRequest& req) {
  return Exchange<CommitTxnOp>(pool_, nullptr, req);
}

obs::TelemetryHub::ReportOutcome SocketTransport::ReportTelemetry(
    const Bytes& frame, uint32_t* delay_us) {
  return Exchange<ReportTelemetryOp>(pool_, delay_us, frame);
}

Result<std::string> SocketTransport::ScrapeTelemetry(uint32_t* delay_us) {
  return Exchange<ScrapeTelemetryOp>(pool_, delay_us);
}

}  // namespace tc::rpc

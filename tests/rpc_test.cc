// The cloud behind a real wire: frame-codec property sweeps, the TCP
// server/client runtime, and server-lifecycle guarantees (graceful
// shutdown, reconnect-with-token-replay, pool exhaustion).
//
// Socket tests probe loopback availability and GTEST_SKIP with a printed
// reason where the environment forbids AF_INET — the codec tests always
// run.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "tc/cloud/fault_injector.h"
#include "tc/cloud/infrastructure.h"
#include "tc/common/rng.h"
#include "tc/fleet/fleet.h"
#include "tc/net/channel.h"
#include "tc/obs/trace.h"
#include "tc/rpc/client.h"
#include "tc/rpc/server.h"
#include "tc/rpc/socket_transport.h"
#include "tc/rpc/wire.h"
#include "tc/rpc/wire_harness.h"

namespace tc::rpc {
namespace {

using cloud::CloudInfrastructure;

#define SKIP_WITHOUT_LOOPBACK()                                           \
  do {                                                                    \
    if (!RpcServer::LoopbackAvailable()) {                                \
      GTEST_SKIP() << "loopback TCP sockets unavailable in this "         \
                      "environment; socket-path test skipped";            \
    }                                                                     \
  } while (false)

// ---------------------------------------------------------------------------
// Frame header codec
// ---------------------------------------------------------------------------

TEST(WireFrameTest, HeaderRoundTripsEveryOp) {
  for (uint8_t op = 0; op <= static_cast<uint8_t>(RpcOp::kCommitTxn); ++op) {
    FrameHeader h;
    h.op = static_cast<RpcOp>(op);
    h.flags = (op % 2) ? kFlagResponse : 0;
    h.request_id = 0x1122334455667788ULL + op;
    h.trace.trace_id = 0xdeadbeefcafef00dULL;
    h.trace.span_id = 42 + op;
    h.trace.parent_id = 7;
    h.payload_size = 123456;
    Bytes buf = EncodeFrameHeader(h);
    ASSERT_EQ(buf.size(), kFrameHeaderBytes);
    auto decoded = DecodeFrameHeader(buf.data(), buf.size());
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded->op, h.op);
    EXPECT_EQ(decoded->flags, h.flags);
    EXPECT_EQ(decoded->request_id, h.request_id);
    EXPECT_EQ(decoded->trace.trace_id, h.trace.trace_id);
    EXPECT_EQ(decoded->trace.span_id, h.trace.span_id);
    EXPECT_EQ(decoded->trace.parent_id, h.trace.parent_id);
    EXPECT_EQ(decoded->payload_size, h.payload_size);
    EXPECT_EQ(decoded->response(), h.flags == kFlagResponse);
  }
}

TEST(WireFrameTest, RejectsBadMagicVersionOpAndOversize) {
  FrameHeader h;
  Bytes good = EncodeFrameHeader(h);

  Bytes bad_magic = good;
  bad_magic[0] ^= 0xff;
  EXPECT_EQ(DecodeFrameHeader(bad_magic.data(), bad_magic.size())
                .status()
                .code(),
            StatusCode::kCorruption);

  // Version mismatch is distinguishable from garbage: a future peer gets
  // kUnimplemented, not kCorruption.
  Bytes bad_version = good;
  bad_version[4] = 0x7f;
  EXPECT_EQ(DecodeFrameHeader(bad_version.data(), bad_version.size())
                .status()
                .code(),
            StatusCode::kUnimplemented);

  Bytes bad_op = good;
  bad_op[6] = 0xee;
  EXPECT_EQ(DecodeFrameHeader(bad_op.data(), bad_op.size()).status().code(),
            StatusCode::kCorruption);

  Bytes oversize = good;
  // payload_size lives at offset 40 (little-endian u32): ask for 4 GiB.
  oversize[40] = oversize[41] = oversize[42] = oversize[43] = 0xff;
  EXPECT_EQ(
      DecodeFrameHeader(oversize.data(), oversize.size()).status().code(),
      StatusCode::kCorruption);

  // Short buffers never over-read.
  for (size_t n = 0; n < kFrameHeaderBytes; ++n) {
    EXPECT_FALSE(DecodeFrameHeader(good.data(), n).ok());
  }
}

// ---------------------------------------------------------------------------
// Payload codecs: round-trip property sweep over every RPC type
// ---------------------------------------------------------------------------

Bytes RandomPayload(Rng& rng, size_t n) { return rng.NextBytes(n); }

cloud::SnapshotDescriptor RandomSnapshot(Rng& rng) {
  cloud::SnapshotDescriptor snap;
  snap.base_seq = rng.NextU64() % 100000;
  for (size_t i = rng.NextU64() % 5; i > 0; --i) {
    snap.extra_seqs.push_back(snap.base_seq + 1 + rng.NextU64() % 1000);
  }
  std::sort(snap.extra_seqs.begin(), snap.extra_seqs.end());
  for (size_t i = rng.NextU64() % 4; i > 0; --i) {
    snap.shard_high.push_back(rng.NextU64() % 100000);
  }
  return snap;
}

TEST(WireCodecTest, PutBatchRoundTrip) {
  Rng rng(1);
  for (int iter = 0; iter < 50; ++iter) {
    std::vector<std::pair<std::string, Bytes>> items;
    std::vector<std::string> tokens;
    size_t n = rng.NextU64() % 6;  // Includes the empty batch.
    for (size_t i = 0; i < n; ++i) {
      items.emplace_back("blob" + std::to_string(rng.NextU64() % 100),
                         RandomPayload(rng, rng.NextU64() % 2048));
      tokens.push_back("tok/" + std::to_string(i));
    }
    if (iter % 3 == 0) tokens.clear();  // Tokenless batches are legal.
    Bytes wire = EncodePutBatchRequest(items, tokens);
    auto decoded = DecodePutBatchRequest(wire);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    ASSERT_EQ(decoded->items.size(), items.size());
    for (size_t i = 0; i < items.size(); ++i) {
      EXPECT_EQ(decoded->items[i].first, items[i].first);
      EXPECT_EQ(decoded->items[i].second, items[i].second);
    }
    EXPECT_EQ(decoded->tokens, tokens);
  }
}

TEST(WireCodecTest, PutBatchResponseRoundTripIncludingPartialAndErrors) {
  Rng rng(2);
  for (int iter = 0; iter < 50; ++iter) {
    CloudInfrastructure::BatchPutOutcome out;
    size_t n = rng.NextU64() % 5;
    for (size_t i = 0; i < n; ++i) {
      bool acked = rng.NextU64() % 2;
      out.acked.push_back(acked ? 1 : 0);
      out.versions.push_back(acked ? 1 + rng.NextU64() % 50 : 0);
    }
    if (iter % 2) out.status = Status::Unavailable("torn batch");
    out.delay_us = static_cast<uint32_t>(rng.NextU64());
    out.fault_ordinal = rng.NextU64();
    auto decoded = DecodePutBatchResponse(EncodePutBatchResponse(out));
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded->status, out.status);
    EXPECT_EQ(decoded->versions, out.versions);
    EXPECT_EQ(decoded->acked, out.acked);
    EXPECT_EQ(decoded->delay_us, out.delay_us);
    EXPECT_EQ(decoded->fault_ordinal, out.fault_ordinal);
  }
}

TEST(WireCodecTest, GetBlobRoundTripEmptyAndLarge) {
  Rng rng(3);
  for (size_t size : {size_t{0}, size_t{1}, size_t{64 * 1024}}) {
    auto id = DecodeGetBlobRequest(EncodeGetBlobRequest("some/blob"));
    ASSERT_TRUE(id.ok());
    EXPECT_EQ(id.value(), "some/blob");

    GetBlobResponse resp;
    resp.data = RandomPayload(rng, size);
    resp.delay_us = 777;
    auto decoded = DecodeGetBlobResponse(EncodeGetBlobResponse(resp));
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded->data, resp.data);
    EXPECT_EQ(decoded->delay_us, resp.delay_us);
    EXPECT_TRUE(decoded->status.ok());
  }
  GetBlobResponse not_found;
  not_found.status = Status::NotFound("no blob");
  auto decoded = DecodeGetBlobResponse(EncodeGetBlobResponse(not_found));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->status.code(), StatusCode::kNotFound);
  EXPECT_EQ(decoded->status.message(), "no blob");
}

TEST(WireCodecTest, SnapshotRpcsRoundTrip) {
  Rng rng(4);
  for (int iter = 0; iter < 50; ++iter) {
    GetSnapshotResponse snap_resp;
    snap_resp.snapshot = RandomSnapshot(rng);
    snap_resp.delay_us = 5;
    auto snap = DecodeGetSnapshotResponse(
        EncodeGetSnapshotResponse(snap_resp));
    ASSERT_TRUE(snap.ok());
    EXPECT_EQ(snap->snapshot.base_seq, snap_resp.snapshot.base_seq);
    EXPECT_EQ(snap->snapshot.extra_seqs, snap_resp.snapshot.extra_seqs);
    EXPECT_EQ(snap->snapshot.shard_high, snap_resp.snapshot.shard_high);

    GetAtSnapshotRequest req;
    req.id = "doc" + std::to_string(iter);
    req.snapshot = RandomSnapshot(rng);
    auto dreq = DecodeGetAtSnapshotRequest(EncodeGetAtSnapshotRequest(req));
    ASSERT_TRUE(dreq.ok());
    EXPECT_EQ(dreq->id, req.id);
    EXPECT_EQ(dreq->snapshot.base_seq, req.snapshot.base_seq);
    EXPECT_EQ(dreq->snapshot.extra_seqs, req.snapshot.extra_seqs);

    GetAtSnapshotResponse resp;
    resp.read.data = RandomPayload(rng, rng.NextU64() % 512);
    resp.read.version = rng.NextU64();
    resp.read.commit_seq = rng.NextU64();
    auto dresp =
        DecodeGetAtSnapshotResponse(EncodeGetAtSnapshotResponse(resp));
    ASSERT_TRUE(dresp.ok());
    EXPECT_EQ(dresp->read.data, resp.read.data);
    EXPECT_EQ(dresp->read.version, resp.read.version);
    EXPECT_EQ(dresp->read.commit_seq, resp.read.commit_seq);
  }
}

TEST(WireCodecTest, TxnRoundTrip) {
  Rng rng(5);
  for (int iter = 0; iter < 50; ++iter) {
    cloud::TxnRequest req;
    req.token = "txn/" + std::to_string(iter);
    req.snapshot = RandomSnapshot(rng);
    for (size_t i = rng.NextU64() % 4; i > 0; --i) {
      req.reads.push_back({"key" + std::to_string(rng.NextU64() % 10),
                           rng.NextU64() % 100});
    }
    for (size_t i = rng.NextU64() % 4; i > 0; --i) {
      cloud::TxnWrite w;
      w.id = "key" + std::to_string(rng.NextU64() % 10);
      w.data = RandomPayload(rng, rng.NextU64() % 256);
      w.base_version =
          (rng.NextU64() % 4 == 0) ? cloud::kBaseVersionAny : rng.NextU64() % 100;
      req.writes.push_back(std::move(w));
    }
    auto dreq = DecodeTxnRequest(EncodeTxnRequest(req));
    ASSERT_TRUE(dreq.ok()) << dreq.status().ToString();
    EXPECT_EQ(dreq->token, req.token);
    ASSERT_EQ(dreq->reads.size(), req.reads.size());
    for (size_t i = 0; i < req.reads.size(); ++i) {
      EXPECT_EQ(dreq->reads[i].id, req.reads[i].id);
      EXPECT_EQ(dreq->reads[i].version, req.reads[i].version);
    }
    ASSERT_EQ(dreq->writes.size(), req.writes.size());
    for (size_t i = 0; i < req.writes.size(); ++i) {
      EXPECT_EQ(dreq->writes[i].id, req.writes[i].id);
      EXPECT_EQ(dreq->writes[i].data, req.writes[i].data);
      EXPECT_EQ(dreq->writes[i].base_version, req.writes[i].base_version);
    }

    cloud::TxnOutcome out;
    out.committed = iter % 2;
    out.replayed = iter % 3 == 0;
    out.commit_seq = rng.NextU64();
    if (out.committed) {
      for (size_t i = 0; i < req.writes.size(); ++i) {
        out.versions.push_back(1 + rng.NextU64() % 100);
      }
    } else {
      out.status = Status::Aborted("conflict");
      out.conflict_id = "key3";
    }
    out.delay_us = static_cast<uint32_t>(rng.NextU64());
    out.fault_ordinal = rng.NextU64();
    auto dout = DecodeTxnOutcome(EncodeTxnOutcome(out));
    ASSERT_TRUE(dout.ok());
    EXPECT_EQ(dout->status, out.status);
    EXPECT_EQ(dout->committed, out.committed);
    EXPECT_EQ(dout->replayed, out.replayed);
    EXPECT_EQ(dout->commit_seq, out.commit_seq);
    EXPECT_EQ(dout->versions, out.versions);
    EXPECT_EQ(dout->conflict_id, out.conflict_id);
  }
}

// Every decoder must reject every truncation of a valid payload without
// crashing or over-reading, and survive deterministic byte corruption
// (either failing cleanly or decoding *something* — never UB).
TEST(WireCodecTest, TruncationAndFuzzNeverCrashOrOverRead) {
  Rng rng(6);
  std::vector<std::pair<std::string, Bytes>> items = {
      {"a", RandomPayload(rng, 100)}, {"b", RandomPayload(rng, 3)}};
  std::vector<std::string> tokens = {"t1", "t2"};
  cloud::TxnRequest txn;
  txn.token = "txn/x";
  txn.snapshot = RandomSnapshot(rng);
  txn.reads.push_back({"k", 3});
  txn.writes.push_back({"k", RandomPayload(rng, 40), 3});
  cloud::TxnOutcome txn_out;
  txn_out.committed = true;
  txn_out.versions = {4};
  CloudInfrastructure::BatchPutOutcome put_out;
  put_out.versions = {1, 2};
  put_out.acked = {1, 1};

  GetAtSnapshotRequest at_req;
  at_req.id = "k";
  at_req.snapshot = RandomSnapshot(rng);
  GetSnapshotResponse snap_resp;
  snap_resp.snapshot = RandomSnapshot(rng);
  GetAtSnapshotResponse at_resp;
  at_resp.read.data = RandomPayload(rng, 30);

  GetBlobResponse blob_resp;
  blob_resp.data = RandomPayload(rng, 64);

  struct Case {
    const char* name;
    Bytes wire;
    std::function<Status(const Bytes&)> decode;
  };
  std::vector<Case> cases = {
      {"put_req", EncodePutBatchRequest(items, tokens),
       [](const Bytes& b) { return DecodePutBatchRequest(b).status(); }},
      {"put_resp", EncodePutBatchResponse(put_out),
       [](const Bytes& b) { return DecodePutBatchResponse(b).status(); }},
      {"get_req", EncodeGetBlobRequest("blob/a"),
       [](const Bytes& b) { return DecodeGetBlobRequest(b).status(); }},
      {"get_resp", EncodeGetBlobResponse(blob_resp),
       [](const Bytes& b) { return DecodeGetBlobResponse(b).status(); }},
      {"snap_resp", EncodeGetSnapshotResponse(snap_resp),
       [](const Bytes& b) { return DecodeGetSnapshotResponse(b).status(); }},
      {"at_req", EncodeGetAtSnapshotRequest(at_req),
       [](const Bytes& b) { return DecodeGetAtSnapshotRequest(b).status(); }},
      {"at_resp", EncodeGetAtSnapshotResponse(at_resp),
       [](const Bytes& b) { return DecodeGetAtSnapshotResponse(b).status(); }},
      {"txn_req", EncodeTxnRequest(txn),
       [](const Bytes& b) { return DecodeTxnRequest(b).status(); }},
      {"txn_resp", EncodeTxnOutcome(txn_out),
       [](const Bytes& b) { return DecodeTxnOutcome(b).status(); }},
  };

  for (const auto& c : cases) {
    // Full payload decodes.
    EXPECT_TRUE(c.decode(c.wire).ok()) << c.name;
    // Every strict prefix fails cleanly (ASan enforces "no over-read").
    for (size_t n = 0; n < c.wire.size(); ++n) {
      Bytes truncated(c.wire.begin(), c.wire.begin() + n);
      Status s = c.decode(truncated);
      EXPECT_FALSE(s.ok()) << c.name << " decoded a " << n
                           << "-byte prefix of " << c.wire.size();
    }
    // Deterministic byte fuzz: flip each byte through a few values. The
    // decode may succeed (data bytes) or fail (structure bytes); it must
    // never crash, hang or over-read.
    for (size_t pos = 0; pos < c.wire.size(); ++pos) {
      for (uint8_t delta : {0x01, 0x80, 0xff}) {
        Bytes fuzzed = c.wire;
        fuzzed[pos] ^= delta;
        (void)c.decode(fuzzed);
      }
    }
    // Appended trailing garbage is rejected (framing is exact).
    Bytes padded = c.wire;
    padded.push_back(0xab);
    EXPECT_FALSE(c.decode(padded).ok()) << c.name;
  }
}

// ---------------------------------------------------------------------------
// Socket round-trips
// ---------------------------------------------------------------------------

class RpcSocketTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!RpcServer::LoopbackAvailable()) {
      GTEST_SKIP() << "loopback TCP sockets unavailable in this "
                      "environment; socket-path test skipped";
    }
  }

  std::unique_ptr<RpcServer> StartServer(CloudInfrastructure* cloud,
                                         RpcServer::Options options = {}) {
    auto server = std::make_unique<RpcServer>(cloud, options);
    Status started = server->Start();
    EXPECT_TRUE(started.ok()) << started.ToString();
    return server;
  }
};

TEST_F(RpcSocketTest, FullRpcSurfaceRoundTripsTheWire) {
  CloudInfrastructure cloud;
  auto server = StartServer(&cloud);
  SocketTransport transport("127.0.0.1", server->port());

  // PutBlobBatch with tokens.
  std::vector<std::pair<std::string, Bytes>> items = {
      {"doc/a", Bytes{1, 2, 3}}, {"doc/b", Bytes{9, 8, 7, 6}}};
  auto put = transport.PutBlobBatch(items, {"tok/a", "tok/b"});
  ASSERT_TRUE(put.status.ok()) << put.status.ToString();
  ASSERT_EQ(put.versions.size(), 2u);
  EXPECT_EQ(put.versions[0], 1u);
  EXPECT_EQ(put.acked, (std::vector<uint8_t>{1, 1}));

  // Token idempotency survives the wire: same token, same answer, no new
  // version.
  auto replay = transport.PutBlobBatch(items, {"tok/a", "tok/b"});
  ASSERT_TRUE(replay.status.ok());
  EXPECT_EQ(replay.versions, put.versions);
  EXPECT_EQ(cloud.LatestBlobVersion("doc/a").value_or(0), 1u);

  // GetBlob.
  uint32_t delay = 1234;
  auto got = transport.GetBlob("doc/a", &delay);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got.value(), (Bytes{1, 2, 3}));
  EXPECT_EQ(delay, 0u);  // No injector attached: clean attempt.
  auto missing = transport.GetBlob("doc/none", nullptr);
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);

  // Snapshot acquisition + snapshot read.
  auto snap = transport.GetSnapshot(nullptr);
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  auto at = transport.GetAtSnapshot("doc/b", snap.value(), nullptr);
  ASSERT_TRUE(at.ok()) << at.status().ToString();
  EXPECT_EQ(at->data, (Bytes{9, 8, 7, 6}));
  EXPECT_EQ(at->version, 1u);

  // CommitTxn: read-validated write on top of the snapshot.
  cloud::TxnRequest txn;
  txn.token = "txn/1";
  txn.snapshot = snap.value();
  txn.reads.push_back({"doc/a", 1});
  txn.writes.push_back({"doc/a", Bytes{4, 4, 4}, 1});
  auto outcome = transport.CommitTxn(txn);
  ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();
  EXPECT_TRUE(outcome.committed);
  ASSERT_EQ(outcome.versions.size(), 1u);
  EXPECT_EQ(outcome.versions[0], 2u);

  // Txn token replay answered from the table, not re-applied.
  auto outcome2 = transport.CommitTxn(txn);
  EXPECT_TRUE(outcome2.committed);
  EXPECT_TRUE(outcome2.replayed);
  EXPECT_EQ(outcome2.commit_seq, outcome.commit_seq);
  EXPECT_EQ(cloud.LatestBlobVersion("doc/a").value_or(0), 2u);

  EXPECT_GE(server->stats().requests, 8u);
  EXPECT_EQ(server->stats().malformed, 0u);
}

TEST_F(RpcSocketTest, ResilientChannelSpeaksSocketTransport) {
  CloudInfrastructure cloud;
  auto server = StartServer(&cloud);
  SocketTransport transport("127.0.0.1", server->port());
  net::ChannelOptions channel_options;
  net::ResilientChannel channel(&transport, "cellA", channel_options);
  EXPECT_EQ(channel.cloud(), nullptr);  // Provider is "another process".

  std::string token = "cellA|doc|v1";
  auto v1 = channel.Put("cellA/doc", Bytes{1}, &token);
  ASSERT_TRUE(v1.ok()) << v1.status().ToString();
  auto v1_again = channel.Put("cellA/doc", Bytes{1}, &token);
  ASSERT_TRUE(v1_again.ok());
  EXPECT_EQ(v1.value(), v1_again.value());  // Exactly-once over the wire.

  auto data = channel.Get("cellA/doc");
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data.value(), Bytes{1});
}

TEST_F(RpcSocketTest, TraceContextPropagatesAcrossTheFrameHeader) {
  CloudInfrastructure cloud;
  auto server = StartServer(&cloud);

  // Client-side: install a context, capture what the codec puts on the
  // wire for it (the client fills the header from CurrentContext()).
  obs::TraceContext ctx;
  ctx.trace_id = 0x1111;
  ctx.span_id = 0x2222;
  ctx.parent_id = 0x3333;
  SocketTransport transport("127.0.0.1", server->port());
  {
    obs::ScopedTraceContext scoped(ctx);
    auto put = transport.PutBlobBatch({{"t/doc", Bytes{1}}}, {"t/tok"});
    ASSERT_TRUE(put.status.ok());
  }
  // The server restored the caller's context inside Dispatch; the blob
  // landing proves the request crossed with the header intact (the header
  // round-trip test pins the trace fields byte-exactly; here we pin the
  // end-to-end path doesn't corrupt framing when trace ids are set).
  EXPECT_TRUE(cloud.BlobExists("t/doc"));
}

// ---------------------------------------------------------------------------
// Malformed input against a live server
// ---------------------------------------------------------------------------

int ConnectTo(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Sends `data`, then waits for the server to close the connection (recv
/// returning 0/EOF) — the clean-close contract for malformed frames.
bool SendThenExpectEof(int fd, const Bytes& data) {
  if (::send(fd, data.data(), data.size(), MSG_NOSIGNAL) !=
      static_cast<ssize_t>(data.size())) {
    return false;
  }
  uint8_t buf[64];
  for (;;) {
    ssize_t r = ::recv(fd, buf, sizeof(buf), 0);
    if (r == 0) return true;   // Clean EOF.
    if (r < 0) return errno == ECONNRESET;  // Also a close, less polite.
  }
}

TEST_F(RpcSocketTest, MalformedFrameClosesConnectionCleanly) {
  CloudInfrastructure cloud;
  auto server = StartServer(&cloud);

  // Garbage magic.
  {
    int fd = ConnectTo(server->port());
    ASSERT_GE(fd, 0);
    Bytes garbage(kFrameHeaderBytes, 0x5a);
    EXPECT_TRUE(SendThenExpectEof(fd, garbage));
    ::close(fd);
  }
  // Version from the future.
  {
    int fd = ConnectTo(server->port());
    ASSERT_GE(fd, 0);
    FrameHeader h;
    h.version = 99;
    Bytes frame = EncodeFrameHeader(h);
    EXPECT_TRUE(SendThenExpectEof(fd, frame));
    ::close(fd);
  }
  // Well-formed header, undecodable payload.
  {
    int fd = ConnectTo(server->port());
    ASSERT_GE(fd, 0);
    FrameHeader h;
    h.op = RpcOp::kCommitTxn;
    h.payload_size = 4;
    Bytes frame = EncodeFrameHeader(h);
    Bytes junk = {0xff, 0xff, 0xff, 0xff};
    frame.insert(frame.end(), junk.begin(), junk.end());
    EXPECT_TRUE(SendThenExpectEof(fd, frame));
    ::close(fd);
  }

  // The server survived all three and still serves new connections.
  SocketTransport transport("127.0.0.1", server->port());
  auto put = transport.PutBlobBatch({{"ok/doc", Bytes{1}}}, {"ok/tok"});
  EXPECT_TRUE(put.status.ok()) << put.status.ToString();
  EXPECT_GE(server->stats().malformed, 3u);
  EXPECT_GE(server->stats().version_mismatch, 1u);
}

// ---------------------------------------------------------------------------
// Server lifecycle
// ---------------------------------------------------------------------------

TEST_F(RpcSocketTest, GracefulShutdownWithInFlightRequestsAcksOrAborts) {
  // Slow provider ops (wall-clock) guarantee requests are genuinely
  // in-flight inside the worker pool when Shutdown lands.
  CloudInfrastructure::Options cloud_options;
  cloud_options.op_latency_us = 20000;  // 20 ms per op.
  CloudInfrastructure cloud(cloud::AdversaryConfig::Honest(), cloud_options);
  RpcServer::Options server_options;
  server_options.worker_threads = 4;
  auto server = StartServer(&cloud, server_options);
  SocketTransport transport("127.0.0.1", server->port());

  constexpr int kCalls = 16;
  std::atomic<int> acked{0}, failed{0};
  std::vector<std::thread> callers;
  callers.reserve(kCalls);
  for (int i = 0; i < kCalls; ++i) {
    callers.emplace_back([&, i] {
      auto put = transport.PutBlobBatch(
          {{"doc" + std::to_string(i), Bytes{static_cast<uint8_t>(i)}}},
          {"tok" + std::to_string(i)});
      if (put.status.ok()) {
        acked.fetch_add(1);
      } else {
        // Aborted-by-shutdown: transport-level kUnavailable, never a
        // fabricated provider answer.
        EXPECT_TRUE(put.status.IsTransient() ||
                    put.status.IsDeadlineExceeded())
            << put.status.ToString();
        failed.fetch_add(1);
      }
    });
  }
  // Let some land in the pool, then pull the plug mid-flight.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  server->Shutdown();
  for (auto& t : callers) t.join();

  EXPECT_EQ(acked.load() + failed.load(), kCalls);
  // Every ack is durable: the blobs the clients saw acked exist.
  size_t stored = cloud.ListBlobs("doc").size();
  EXPECT_GE(stored, static_cast<size_t>(acked.load()));
  // No worker leak / double shutdown issues.
  server->Shutdown();
  EXPECT_FALSE(server->running());
}

TEST_F(RpcSocketTest, ClientReconnectsAfterServerRestartWithoutDuplicates) {
  CloudInfrastructure cloud;
  auto server = StartServer(&cloud);
  const uint16_t port = server->port();
  RpcClientPool::Options pool_options;
  pool_options.connections = 1;
  SocketTransport transport("127.0.0.1", port, pool_options);

  auto put = transport.PutBlobBatch({{"r/doc", Bytes{1}}}, {"r/tok1"});
  ASSERT_TRUE(put.status.ok());
  ASSERT_EQ(put.versions[0], 1u);

  // Server restart (same provider state, same port — the cell outbox
  // scenario: provider process bounced, storage survived).
  server->Shutdown();
  auto lost = transport.PutBlobBatch({{"r/doc", Bytes{2}}}, {"r/tok2"});
  EXPECT_TRUE(lost.status.IsTransient() || lost.status.IsDeadlineExceeded())
      << lost.status.ToString();

  RpcServer::Options restart_options;
  restart_options.port = port;
  server = StartServer(&cloud, restart_options);
  ASSERT_EQ(server->port(), port);

  // The client lazily reconnects; the outbox-style retry re-sends under
  // the ORIGINAL token, so even if the pre-restart attempt had landed,
  // the token table dedupes: no duplicate versions.
  auto drained = transport.PutBlobBatch({{"r/doc", Bytes{2}}}, {"r/tok2"});
  ASSERT_TRUE(drained.status.ok()) << drained.status.ToString();
  EXPECT_EQ(drained.versions[0], 2u);
  auto replay = transport.PutBlobBatch({{"r/doc", Bytes{2}}}, {"r/tok2"});
  ASSERT_TRUE(replay.status.ok());
  EXPECT_EQ(replay.versions[0], 2u);  // Same token -> same version.
  EXPECT_EQ(cloud.LatestBlobVersion("r/doc").value_or(0), 2u);
}

TEST_F(RpcSocketTest, WarmedPoolSurvivesServerRestartWithoutColdConnect) {
  // Regression (PR 8): with lazy reconnect only, a provider restart left
  // every pooled connection dead, and each connection's NEXT caller paid
  // the TCP connect inside its own request deadline — a burst of spurious
  // kDeadlineExceeded/kUnavailable per restart. With warmup plus the
  // maintenance thread, the pool is healthy again before callers arrive,
  // so a run of calls right after the pool reports recovery all succeed.
  CloudInfrastructure cloud;
  auto server = StartServer(&cloud);
  const uint16_t port = server->port();

  RpcClientPool::Options pool_options;
  pool_options.host = "127.0.0.1";
  pool_options.port = port;
  pool_options.connections = 2;
  pool_options.warmup = true;
  pool_options.reconnect_interval_ms = 20;
  pool_options.request_timeout_ms = 2000;
  RpcClientPool pool(pool_options);

  // Warmup ran in the constructor: every connection is already healthy.
  EXPECT_EQ(pool.connected_count(), pool.connection_count());
  auto ping = pool.Call(RpcOp::kPing, Bytes());
  ASSERT_TRUE(ping.ok()) << ping.status().ToString();

  server->Shutdown();
  RpcServer::Options restart_options;
  restart_options.port = port;
  server = StartServer(&cloud, restart_options);
  ASSERT_EQ(server->port(), port);

  // The maintenance thread must restore the whole pool off the callers'
  // critical path. Poll up to ~5s (interval is 20ms; this is generous).
  bool recovered = false;
  for (int i = 0; i < 500; ++i) {
    if (pool.connected_count() == pool.connection_count()) {
      recovered = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(recovered) << "maintenance thread never re-established all "
                         << pool.connection_count() << " connections";

  // Every post-recovery call succeeds: nobody eats a cold connect (or a
  // dead socket) inside their deadline. Round-robin covers both conns.
  for (int i = 0; i < 8; ++i) {
    auto call = pool.Call(RpcOp::kPing, Bytes());
    EXPECT_TRUE(call.ok()) << "call " << i << ": " << call.status().ToString();
  }
  pool.Close();
}

TEST_F(RpcSocketTest, PoolExhaustionReturnsUnavailableNotDeadlock) {
  // One slow server worker + a tiny in-flight cap: the overflow calls must
  // fail fast with kUnavailable, not queue behind the slow ones.
  CloudInfrastructure::Options cloud_options;
  cloud_options.op_latency_us = 50000;  // 50 ms per op.
  CloudInfrastructure cloud(cloud::AdversaryConfig::Honest(), cloud_options);
  RpcServer::Options server_options;
  server_options.worker_threads = 1;
  auto server = StartServer(&cloud, server_options);

  RpcClientPool::Options pool_options;
  pool_options.connections = 1;
  pool_options.max_in_flight = 2;
  pool_options.request_timeout_ms = 10000;
  SocketTransport transport("127.0.0.1", server->port(), pool_options);

  constexpr int kCalls = 8;
  std::atomic<int> ok{0}, exhausted{0};
  std::vector<std::thread> callers;
  for (int i = 0; i < kCalls; ++i) {
    callers.emplace_back([&, i] {
      auto put = transport.PutBlobBatch(
          {{"x/doc" + std::to_string(i), Bytes{1}}},
          {"x/tok" + std::to_string(i)});
      if (put.status.ok()) {
        ok.fetch_add(1);
      } else {
        ASSERT_EQ(put.status.code(), StatusCode::kUnavailable)
            << put.status.ToString();
        exhausted.fetch_add(1);
      }
    });
  }
  for (auto& t : callers) t.join();  // Terminates = no deadlock.
  EXPECT_EQ(ok.load() + exhausted.load(), kCalls);
  EXPECT_GE(ok.load(), 1);
  EXPECT_GE(exhausted.load(), 1);  // The cap actually bit.
}

TEST_F(RpcSocketTest, ClientDeadlineExceededOnSlowServer) {
  CloudInfrastructure::Options cloud_options;
  cloud_options.op_latency_us = 200000;  // 200 ms per op.
  CloudInfrastructure cloud(cloud::AdversaryConfig::Honest(), cloud_options);
  auto server = StartServer(&cloud);
  RpcClientPool::Options pool_options;
  pool_options.request_timeout_ms = 20;  // Far below the op latency.
  SocketTransport transport("127.0.0.1", server->port(), pool_options);
  auto put = transport.PutBlobBatch({{"d/doc", Bytes{1}}}, {"d/tok"});
  EXPECT_EQ(put.status.code(), StatusCode::kDeadlineExceeded)
      << put.status.ToString();
}

// ---------------------------------------------------------------------------
// Socket-path fleet leg (also runs under TSan: accept/dispatch/pool races)
// ---------------------------------------------------------------------------

TEST_F(RpcSocketTest, FleetChaosSweepOverRealSocketsLosesNoAckedWrite) {
  cloud::NetworkFaultConfig fault_config;
  fault_config.seed = 77;
  fault_config.drop_request_prob = 0.10;
  fault_config.drop_ack_prob = 0.10;
  fault_config.duplicate_prob = 0.05;
  cloud::NetworkFaultInjector injector(fault_config);
  CloudInfrastructure cloud;
  cloud.set_fault_injector(&injector);

  RpcServer::Options server_options;
  server_options.worker_threads = 4;
  auto server = StartServer(&cloud, server_options);
  RpcClientPool::Options pool_options;
  pool_options.connections = 4;
  SocketTransport transport("127.0.0.1", server->port(), pool_options);

  fleet::FleetOptions options;
  options.cells = 6;
  options.threads = 3;
  options.rounds_per_cell = 8;
  options.docs_per_cell = 4;
  options.put_batch = 2;
  options.gets_per_round = 2;
  options.payload_bytes = 64;
  options.send_prob = 0.0;
  options.transport = &transport;
  options.seed = 99;

  fleet::FleetRunner runner(&cloud, options);
  auto report = runner.Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  // The fleet's own invariant checks (no acked-write loss, read-back
  // verification, convergence audit) ran against real sockets under
  // injected faults; a clean report is the assertion.
  EXPECT_EQ(report->cells_failed, 0u);
  EXPECT_TRUE(report->converged);
  EXPECT_GT(report->puts, 0u);
}

// ---------------------------------------------------------------------------
// WireHarness toggle
// ---------------------------------------------------------------------------

TEST(WireHarnessTest, InertWithoutEnvToggle) {
  if (WireHarness::SocketRequested()) {
    GTEST_SKIP() << "TC_TRANSPORT=socket is set; inertness test not "
                    "applicable in the wire leg";
  }
  CloudInfrastructure cloud;
  WireHarness harness(&cloud);
  EXPECT_EQ(harness.transport(), nullptr);
  EXPECT_EQ(harness.server(), nullptr);
}

}  // namespace
}  // namespace tc::rpc

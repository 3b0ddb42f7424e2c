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
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "tc/cloud/fault_injector.h"
#include "tc/cloud/infrastructure.h"
#include "tc/common/overload.h"
#include "tc/common/rng.h"
#include "tc/fleet/fleet.h"
#include "tc/net/channel.h"
#include "tc/obs/telemetry.h"
#include "tc/obs/trace.h"
#include "tc/rpc/client.h"
#include "tc/rpc/server.h"
#include "tc/rpc/socket_transport.h"
#include "tc/rpc/wire.h"
#include "tc/testing/wire_harness.h"

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
  for (uint8_t op = 0; op < kRpcOpCount; ++op) {
    FrameHeader h;
    h.op = static_cast<RpcOp>(op);
    h.flags = (op % 2) ? kFlagResponse : 0;
    h.request_id = 0x1122334455667788ULL + op;
    h.trace.trace_id = 0xdeadbeefcafef00dULL;
    h.trace.span_id = 42 + op;
    h.trace.parent_id = 7;
    h.budget_us = 1000u * op;
    const Bytes body(100 + op, op);
    Bytes buf = EncodeFrame(h, body);
    ASSERT_EQ(buf.size(), kFrameHeaderBytes + body.size());
    auto decoded = DecodeFrameHeader(buf.data(), kFrameHeaderBytes);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded->op, h.op);
    EXPECT_EQ(decoded->flags, h.flags);
    EXPECT_EQ(decoded->request_id, h.request_id);
    EXPECT_EQ(decoded->trace.trace_id, h.trace.trace_id);
    EXPECT_EQ(decoded->trace.span_id, h.trace.span_id);
    EXPECT_EQ(decoded->trace.parent_id, h.trace.parent_id);
    EXPECT_EQ(decoded->payload_size, body.size());
    EXPECT_EQ(decoded->budget_us, h.budget_us);
    EXPECT_EQ(decoded->response(), h.flags == kFlagResponse);
    EXPECT_STRNE(RpcOpName(h.op), "unknown");
  }
  EXPECT_FALSE(RpcOpKnown(kRpcOpCount));
}

TEST(WireFrameTest, EncodeFrameIsHeaderThenBody) {
  FrameHeader h;
  h.op = RpcOp::kGetBlob;
  h.request_id = 9;
  h.payload_size = 777;  // Overwritten from the body.
  const Bytes body = {1, 2, 3, 4, 5};
  Bytes frame = EncodeFrame(h, body);
  ASSERT_EQ(frame.size(), kFrameHeaderBytes + body.size());
  auto decoded = DecodeFrameHeader(frame.data(), frame.size());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->payload_size, body.size());
  EXPECT_EQ(decoded->request_id, 9u);
  EXPECT_EQ(Bytes(frame.begin() + kFrameHeaderBytes, frame.end()), body);
  // An empty body is the bare header.
  EXPECT_EQ(EncodeFrame(h, Bytes()).size(), kFrameHeaderBytes);
}

TEST(WireFrameTest, RejectsBadMagicVersionOpAndOversize) {
  FrameHeader h;
  Bytes good = EncodeFrame(h, Bytes());

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
// Payload codecs: round-trip property sweep over every op of the table
// ---------------------------------------------------------------------------

using BlobItems = std::vector<std::pair<std::string, Bytes>>;

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

/// The status a reply carries (a field of outcome structs, the Result's
/// own status otherwise).
template <typename Reply>
Status ReplyStatus(const Reply& reply) {
  if constexpr (requires { reply.status; }) {
    return reply.status;
  } else {
    return reply.status();
  }
}

TEST(WireCodecTest, PutBatchRoundTrip) {
  Rng rng(1);
  for (int iter = 0; iter < 50; ++iter) {
    BlobItems items;
    std::vector<std::string> tokens;
    size_t n = rng.NextU64() % 6;  // Includes the empty batch.
    for (size_t i = 0; i < n; ++i) {
      items.emplace_back("blob" + std::to_string(rng.NextU64() % 100),
                         RandomPayload(rng, rng.NextU64() % 2048));
      tokens.push_back("tok/" + std::to_string(i));
    }
    if (iter % 3 == 0) tokens.clear();  // Tokenless batches are legal.
    Bytes wire = EncodeRequest<PutBlobBatchOp>(items, tokens);
    auto decoded = DecodeRequest<PutBlobBatchOp>(wire);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    const auto& [got_items, got_tokens] = decoded.value();
    ASSERT_EQ(got_items.size(), items.size());
    for (size_t i = 0; i < items.size(); ++i) {
      EXPECT_EQ(got_items[i].first, items[i].first);
      EXPECT_EQ(got_items[i].second, items[i].second);
    }
    EXPECT_EQ(got_tokens, tokens);
  }
  // Tokens are per-item: a mismatched count is a protocol error.
  auto mismatched = DecodeRequest<PutBlobBatchOp>(EncodeRequest<PutBlobBatchOp>(
      BlobItems{{"a", Bytes{1}}, {"b", Bytes{2}}},
      std::vector<std::string>{"only-one"}));
  EXPECT_EQ(mismatched.status().code(), StatusCode::kCorruption);
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
    uint32_t delay = 0;
    auto decoded = DecodeReply<PutBlobBatchOp>(
        EncodeReply<PutBlobBatchOp>(out, 0), &delay);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded->status, out.status);
    EXPECT_EQ(decoded->versions, out.versions);
    EXPECT_EQ(decoded->acked, out.acked);
    EXPECT_EQ(decoded->delay_us, out.delay_us);
    EXPECT_EQ(delay, out.delay_us);
    EXPECT_EQ(decoded->fault_ordinal, out.fault_ordinal);
  }
}

TEST(WireCodecTest, GetBlobRoundTripEmptyAndLarge) {
  Rng rng(3);
  for (size_t size : {size_t{0}, size_t{1}, size_t{64 * 1024}}) {
    auto id = DecodeRequest<GetBlobOp>(
        EncodeRequest<GetBlobOp>(std::string("some/blob")));
    ASSERT_TRUE(id.ok());
    EXPECT_EQ(std::get<0>(id.value()), "some/blob");

    const Bytes data = RandomPayload(rng, size);
    uint32_t delay = 0;
    auto decoded =
        DecodeReply<GetBlobOp>(EncodeReply<GetBlobOp>(data, 777), &delay);
    ASSERT_TRUE(decoded.ok());
    ASSERT_TRUE(decoded->ok());
    EXPECT_EQ(decoded->value(), data);
    EXPECT_EQ(delay, 777u);
  }
  uint32_t delay = 0;
  auto decoded = DecodeReply<GetBlobOp>(
      EncodeReply<GetBlobOp>(Status::NotFound("no blob"), 5), &delay);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->status().code(), StatusCode::kNotFound);
  EXPECT_EQ(decoded->status().message(), "no blob");
  EXPECT_EQ(delay, 5u);
}

TEST(WireCodecTest, SnapshotRpcsRoundTrip) {
  Rng rng(4);
  for (int iter = 0; iter < 50; ++iter) {
    const cloud::SnapshotDescriptor snapshot = RandomSnapshot(rng);
    uint32_t delay = 0;
    auto snap = DecodeReply<GetSnapshotOp>(
        EncodeReply<GetSnapshotOp>(snapshot, 5), &delay);
    ASSERT_TRUE(snap.ok());
    ASSERT_TRUE(snap->ok());
    EXPECT_EQ((*snap)->base_seq, snapshot.base_seq);
    EXPECT_EQ((*snap)->extra_seqs, snapshot.extra_seqs);
    EXPECT_EQ((*snap)->shard_high, snapshot.shard_high);
    EXPECT_EQ(delay, 5u);

    const std::string id = "doc" + std::to_string(iter);
    const cloud::SnapshotDescriptor at = RandomSnapshot(rng);
    auto dreq = DecodeRequest<GetAtSnapshotOp>(
        EncodeRequest<GetAtSnapshotOp>(id, at));
    ASSERT_TRUE(dreq.ok());
    EXPECT_EQ(std::get<0>(dreq.value()), id);
    EXPECT_EQ(std::get<1>(dreq.value()).base_seq, at.base_seq);
    EXPECT_EQ(std::get<1>(dreq.value()).extra_seqs, at.extra_seqs);

    cloud::SnapshotRead read;
    read.data = RandomPayload(rng, rng.NextU64() % 512);
    read.version = rng.NextU64();
    read.commit_seq = rng.NextU64();
    auto dresp = DecodeReply<GetAtSnapshotOp>(
        EncodeReply<GetAtSnapshotOp>(read, 0), &delay);
    ASSERT_TRUE(dresp.ok());
    ASSERT_TRUE(dresp->ok());
    EXPECT_EQ((*dresp)->data, read.data);
    EXPECT_EQ((*dresp)->version, read.version);
    EXPECT_EQ((*dresp)->commit_seq, read.commit_seq);
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
    auto decoded_req =
        DecodeRequest<CommitTxnOp>(EncodeRequest<CommitTxnOp>(req));
    ASSERT_TRUE(decoded_req.ok()) << decoded_req.status().ToString();
    const cloud::TxnRequest& dreq = std::get<0>(decoded_req.value());
    EXPECT_EQ(dreq.token, req.token);
    ASSERT_EQ(dreq.reads.size(), req.reads.size());
    for (size_t i = 0; i < req.reads.size(); ++i) {
      EXPECT_EQ(dreq.reads[i].id, req.reads[i].id);
      EXPECT_EQ(dreq.reads[i].version, req.reads[i].version);
    }
    ASSERT_EQ(dreq.writes.size(), req.writes.size());
    for (size_t i = 0; i < req.writes.size(); ++i) {
      EXPECT_EQ(dreq.writes[i].id, req.writes[i].id);
      EXPECT_EQ(dreq.writes[i].data, req.writes[i].data);
      EXPECT_EQ(dreq.writes[i].base_version, req.writes[i].base_version);
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
    uint32_t delay = 0;
    auto dout =
        DecodeReply<CommitTxnOp>(EncodeReply<CommitTxnOp>(out, 0), &delay);
    ASSERT_TRUE(dout.ok());
    EXPECT_EQ(dout->status, out.status);
    EXPECT_EQ(dout->committed, out.committed);
    EXPECT_EQ(dout->replayed, out.replayed);
    EXPECT_EQ(dout->commit_seq, out.commit_seq);
    EXPECT_EQ(dout->versions, out.versions);
    EXPECT_EQ(dout->conflict_id, out.conflict_id);
    EXPECT_EQ(dout->delay_us, out.delay_us);
    EXPECT_EQ(dout->fault_ordinal, out.fault_ordinal);
  }
}

TEST(WireCodecTest, TelemetryRpcsRoundTrip) {
  // The report request is the telemetry frame verbatim.
  const Bytes frame = {0xde, 0xad, 0xbe, 0xef};
  EXPECT_EQ(EncodeRequest<ReportTelemetryOp>(frame), frame);
  auto dreq = DecodeRequest<ReportTelemetryOp>(frame);
  ASSERT_TRUE(dreq.ok());
  EXPECT_EQ(std::get<0>(dreq.value()), frame);

  for (bool duplicate : {false, true}) {
    ReportOutcome out;
    out.applied = !duplicate;
    out.duplicate = duplicate;
    out.last_seq = 41 + duplicate;
    uint32_t delay = 0;
    auto decoded = DecodeReply<ReportTelemetryOp>(
        EncodeReply<ReportTelemetryOp>(out, 300), &delay);
    ASSERT_TRUE(decoded.ok());
    EXPECT_TRUE(decoded->status.ok());
    EXPECT_EQ(decoded->applied, out.applied);
    EXPECT_EQ(decoded->duplicate, out.duplicate);
    EXPECT_EQ(decoded->last_seq, out.last_seq);
    EXPECT_EQ(delay, 300u);
  }

  uint32_t delay = 0;
  auto json = DecodeReply<ScrapeTelemetryOp>(
      EncodeReply<ScrapeTelemetryOp>(std::string("{\"stats\":{}}"), 9),
      &delay);
  ASSERT_TRUE(json.ok());
  ASSERT_TRUE(json->ok());
  EXPECT_EQ(json->value(), "{\"stats\":{}}");
  EXPECT_EQ(delay, 9u);
  // The scrape takes no arguments: any payload byte is corruption.
  EXPECT_FALSE(DecodeRequest<ScrapeTelemetryOp>(Bytes{0}).ok());
}

/// One sample of each op's request payload and reply, so the table-driven
/// sweeps below cover every op: a new op without a sample does not compile.
template <typename Op>
struct WireSample;

template <>
struct WireSample<PingOp> {
  static Bytes Request(Rng& rng) {
    return EncodeRequest<PingOp>(RandomPayload(rng, 16));
  }
  static Bytes Reply(Rng& rng) { return RandomPayload(rng, 16); }
};

template <>
struct WireSample<PutBlobBatchOp> {
  static Bytes Request(Rng& rng) {
    return EncodeRequest<PutBlobBatchOp>(
        BlobItems{{"a", RandomPayload(rng, 100)}, {"b", RandomPayload(rng, 3)}},
        std::vector<std::string>{"t1", "t2"});
  }
  static CloudInfrastructure::BatchPutOutcome Reply(Rng&) {
    CloudInfrastructure::BatchPutOutcome out;
    out.versions = {1, 2};
    out.acked = {1, 1};
    out.fault_ordinal = 3;
    return out;
  }
};

template <>
struct WireSample<GetBlobOp> {
  static Bytes Request(Rng&) {
    return EncodeRequest<GetBlobOp>(std::string("blob/a"));
  }
  static Result<Bytes> Reply(Rng& rng) { return RandomPayload(rng, 64); }
};

template <>
struct WireSample<GetSnapshotOp> {
  static Bytes Request(Rng&) { return EncodeRequest<GetSnapshotOp>(); }
  static Result<cloud::SnapshotDescriptor> Reply(Rng& rng) {
    return RandomSnapshot(rng);
  }
};

template <>
struct WireSample<GetAtSnapshotOp> {
  static Bytes Request(Rng& rng) {
    return EncodeRequest<GetAtSnapshotOp>(std::string("k"),
                                          RandomSnapshot(rng));
  }
  static Result<cloud::SnapshotRead> Reply(Rng& rng) {
    cloud::SnapshotRead read;
    read.data = RandomPayload(rng, 30);
    read.version = 2;
    return read;
  }
};

template <>
struct WireSample<CommitTxnOp> {
  static Bytes Request(Rng& rng) {
    cloud::TxnRequest txn;
    txn.token = "txn/x";
    txn.snapshot = RandomSnapshot(rng);
    txn.reads.push_back({"k", 3});
    txn.writes.push_back({"k", RandomPayload(rng, 40), 3});
    return EncodeRequest<CommitTxnOp>(txn);
  }
  static cloud::TxnOutcome Reply(Rng&) {
    cloud::TxnOutcome out;
    out.committed = true;
    out.versions = {4};
    return out;
  }
};

template <>
struct WireSample<ReportTelemetryOp> {
  static Bytes Request(Rng& rng) {
    return EncodeRequest<ReportTelemetryOp>(RandomPayload(rng, 24));
  }
  static ReportOutcome Reply(Rng&) {
    ReportOutcome out;
    out.applied = true;
    out.last_seq = 12;
    return out;
  }
};

template <>
struct WireSample<ScrapeTelemetryOp> {
  static Bytes Request(Rng&) { return EncodeRequest<ScrapeTelemetryOp>(); }
  static Result<std::string> Reply(Rng&) {
    return std::string("{\"stats\":{\"reports\":1}}");
  }
};

// Every decoder must reject every truncation of a valid payload without
// crashing or over-reading, and survive deterministic byte corruption
// (either failing cleanly or decoding *something* — never UB). Driven by
// the op table: each op's request and reply is a case.
TEST(WireCodecTest, TruncationAndFuzzNeverCrashOrOverRead) {
  Rng rng(6);
  struct Case {
    std::string name;
    Bytes wire;
    std::function<Status(const Bytes&)> decode;
    /// False for a verbatim payload (ping, telemetry frame): the wire
    /// does not frame it, so every prefix and suffix is a valid value.
    bool framed;
  };
  std::vector<Case> cases;
  ForEachOp([&]<typename Op>() {
    cases.push_back(
        {std::string(Op::kName) + "_req", WireSample<Op>::Request(rng),
         [](const Bytes& b) { return DecodeRequest<Op>(b).status(); },
         !std::is_same_v<typename Op::Request, std::tuple<Bytes>>});
    cases.push_back(
        {std::string(Op::kName) + "_reply",
         EncodeReply<Op>(WireSample<Op>::Reply(rng), 7),
         [](const Bytes& b) {
           uint32_t delay = 0;
           return DecodeReply<Op>(b, &delay).status();
         },
         !std::is_same_v<typename Op::Reply, Bytes>});
  });
  ASSERT_EQ(cases.size(), 2 * kRpcOpCount);

  for (const auto& c : cases) {
    // Full payload decodes.
    EXPECT_TRUE(c.decode(c.wire).ok()) << c.name;
    if (!c.framed) continue;
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

// Every op's status-only reply (what the server sends for a request it
// refused to run) decodes to exactly that status and default fields.
TEST(WireCodecTest, StatusOnlyReplyDecodesForEveryOp) {
  const Status refused = Status::DeadlineExceeded("expired in queue");
  size_t covered = 0;
  ForEachOp([&]<typename Op>() {
    ++covered;
    const Bytes payload = EncodeStatusOnlyReply(Op::kOp, refused);
    if constexpr (std::is_same_v<typename Op::Reply, Bytes>) {
      EXPECT_TRUE(payload.empty());  // The ping's status rides the header.
    } else {
      uint32_t delay = 1;
      auto decoded = DecodeReply<Op>(payload, &delay);
      ASSERT_TRUE(decoded.ok()) << Op::kName;
      EXPECT_EQ(ReplyStatus(decoded.value()), refused) << Op::kName;
      EXPECT_EQ(delay, 0u) << Op::kName;
    }
  });
  EXPECT_EQ(covered, kRpcOpCount);
}

// ---------------------------------------------------------------------------
// Wire-format freeze: the exact bytes of every op
// ---------------------------------------------------------------------------
//
// Pins what crosses the socket rather than what a codec function returns:
// the request frames SocketTransport sends, the reply frames an RpcServer
// writes, the status-only replies its admission edge sends back, and how
// the client decodes each of them. It reaches the wire only through the
// transport, the server and raw sockets, so a change to the codecs behind
// them that moves a single byte fails here.

std::string ToHex(const Bytes& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string hex;
  for (uint8_t b : bytes) {
    hex.push_back(kDigits[b >> 4]);
    hex.push_back(kDigits[b & 0xf]);
  }
  return hex;
}

Bytes FromHex(const std::string& hex) {
  Bytes bytes;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    bytes.push_back(
        static_cast<uint8_t>(std::stoul(hex.substr(i, 2), nullptr, 16)));
  }
  return bytes;
}

int ConnectTo(uint16_t port);

bool RecvAll(int fd, uint8_t* buf, size_t n) {
  size_t got = 0;
  while (got < n) {
    ssize_t r = ::recv(fd, buf + got, n - got, 0);
    if (r <= 0) return false;
    got += static_cast<size_t>(r);
  }
  return true;
}

/// Reads one whole frame (48-byte header + payload) off a blocking socket;
/// empty on EOF.
Bytes ReadOneFrame(int fd) {
  Bytes frame(kFrameHeaderBytes);
  if (!RecvAll(fd, frame.data(), frame.size())) return {};
  const uint32_t payload = frame[40] | frame[41] << 8 | frame[42] << 16 |
                           static_cast<uint32_t>(frame[43]) << 24;
  frame.resize(kFrameHeaderBytes + payload);
  if (!RecvAll(fd, frame.data() + kFrameHeaderBytes, payload)) return {};
  return frame;
}

/// Plays the server for one client connection: each Answer() reads one
/// request frame and writes `reply` back with the request's id patched in.
class FakePeer {
 public:
  FakePeer() {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                     sizeof(addr)),
              0);
    EXPECT_EQ(::listen(listen_fd_, 1), 0);
    socklen_t len = sizeof(addr);
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
  }
  ~FakePeer() {
    if (fd_ >= 0) ::close(fd_);
    ::close(listen_fd_);
  }
  uint16_t port() const { return port_; }

  Bytes Answer(Bytes reply) {
    if (fd_ < 0) fd_ = ::accept(listen_fd_, nullptr, nullptr);
    Bytes request = ReadOneFrame(fd_);
    if (request.size() < kFrameHeaderBytes) return request;
    std::copy(request.begin() + 8, request.begin() + 16, reply.begin() + 8);
    EXPECT_EQ(::send(fd_, reply.data(), reply.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(reply.size()));
    return request;
  }

 private:
  int listen_fd_ = -1;
  int fd_ = -1;
  uint16_t port_ = 0;
};

struct FrozenOp {
  const char* name;
  const char* request;  ///< Request frame SocketTransport sends.
  const char* reply;    ///< Success reply frame RpcServer writes back.
};

// Captured from the seven-op wire (kWireVersion 1). The put request carries
// a trace context and the get request a background-class deadline of
// 125 ms, so their headers pin the trace, criticality and budget fields.
// The scrape reply is its header alone: its body is the hub's JSON, which
// ScrapeReply() frames (status, length-prefixed string, delay).
const FrozenOp kFrozenOps[] = {
    {"ping",
     "3157435401000000010000000000000000000000000000000000000000000000"
     "00000000000000000000000000000000",
     "3157435401000001010000000000000000000000000000000000000000000000"
     "00000000000000000000000000000000"},
    {"put_blob_batch",
     "3157435401000100020000000000000011110000000000002222000000000000"
     "333300000000000023000000000000000205646f632f610301020305646f632f"
     "6204090807060205746f6b2f6105746f6b2f62",
     "3157435401000101020000000000000011110000000000002222000000000000"
     "3333000000000000220000000000000000000201000000000000000100000000"
     "000000020101000000000000000000000000"},
    {"get_blob",
     "3157435401000208030000000000000000000000000000000000000000000000"
     "00000000000000000600000048e8010005646f632f61",
     "3157435401000209030000000000000000000000000000000000000000000000"
     "00000000000000000a0000000000000000000301020300000000"},
    {"get_snapshot",
     "3157435401000300040000000000000000000000000000000000000000000000"
     "00000000000000000000000000000000",
     "3157435401000301040000000000000000000000000000000000000000000000"
     "0000000000000000900000000000000000000200000000000000001000000000"
     "0000000001000000000000000000000000000000000000000000000000000000"
     "0000000002000000000000000000000000000000000000000000000000000000"
     "0000000000000000000000000000000000000000000000000000000000000000"
     "0000000000000000000000000000000000000000000000000000000000000000"},
    {"get_at_snapshot",
     "3157435401000400050000000000000000000000000000000000000000000000"
     "0000000000000000900000000000000005646f632f6202000000000000000010"
     "0000000000000000010000000000000000000000000000000000000000000000"
     "0000000000000000020000000000000000000000000000000000000000000000"
     "0000000000000000000000000000000000000000000000000000000000000000"
     "0000000000000000000000000000000000000000000000000000000000000000",
     "3157435401000401050000000000000000000000000000000000000000000000"
     "00000000000000001b0000000000000000000409080706010000000000000002"
     "0000000000000000000000"},
    {"commit_txn",
     "3157435401000500060000000000000000000000000000000000000000000000"
     "0000000000000000b2000000000000000574786e2f3102000000000000000010"
     "0000000000000000010000000000000000000000000000000000000000000000"
     "0000000000000000020000000000000000000000000000000000000000000000"
     "0000000000000000000000000000000000000000000000000000000000000000"
     "0000000000000000000000000000000000000000000000000000000000000000"
     "0105646f632f6101000000000000000105646f632f6103040404010000000000"
     "0000",
     "3157435401000501060000000000000000000000000000000000000000000000"
     "0000000000000000220000000000000000000100030000000000000001020000"
     "000000000000000000000000000000000000"},
    {"report_telemetry",
     "3157435401000600070000000000000000000000000000000000000000000000"
     "00000000000000001600000000000000010663656c6c2d310100000000000000"
     "010163030000",
     "3157435401000601070000000000000000000000000000000000000000000000"
     "0000000000000000100000000000000000000100010000000000000000000000"},
    {"scrape_telemetry",
     "3157435401000700080000000000000000000000000000000000000000000000"
     "00000000000000000000000000000000",
     "3157435401000701080000000000000000000000000000000000000000000000"
     "00000000000000000000000000000000"},
};

// What the admission edge answers for ops 1-6 sent as background work it
// refuses: pushback flag, retry-after hint 2500 µs, status-only body.
const char* const kFrozenStatusOnly[] = {
    "315743540100010b020000000000000011110000000000002222000000000000"
    "33330000000000002e000000c4090000071e7365727665722061646d69737369"
    "6f6e206c696d697420726561636865640000000000000000000000000000",
    "315743540100020b030000000000000000000000000000000000000000000000"
    "000000000000000025000000c4090000071e7365727665722061646d69737369"
    "6f6e206c696d697420726561636865640000000000",
    "315743540100030b040000000000000000000000000000000000000000000000"
    "00000000000000002e000000c4090000071e7365727665722061646d69737369"
    "6f6e206c696d697420726561636865640000000000000000000000000000",
    "315743540100040b050000000000000000000000000000000000000000000000"
    "000000000000000035000000c4090000071e7365727665722061646d69737369"
    "6f6e206c696d6974207265616368656400000000000000000000000000000000"
    "0000000000",
    "315743540100050b060000000000000000000000000000000000000000000000"
    "000000000000000038000000c4090000071e7365727665722061646d69737369"
    "6f6e206c696d6974207265616368656400000000000000000000000000000000"
    "0000000000000000",
    "315743540100060b070000000000000000000000000000000000000000000000"
    "00000000000000002e000000c4090000071e7365727665722061646d69737369"
    "6f6e206c696d697420726561636865640000000000000000000000000000",
};

/// The frozen scrape reply frame around `json`.
Bytes ScrapeReply(const std::string& json) {
  Bytes frame = FromHex(kFrozenOps[7].reply);
  Bytes body = {0x00, 0x00};  // Status kOk, empty message.
  for (uint64_t n = json.size(); ; n >>= 7) {  // Varint string length.
    body.push_back(static_cast<uint8_t>((n & 0x7f) | (n >= 0x80 ? 0x80 : 0)));
    if (n < 0x80) break;
  }
  body.insert(body.end(), json.begin(), json.end());
  body.insert(body.end(), 4, 0x00);  // delay_us.
  for (int i = 0; i < 4; ++i) frame[40 + i] = (body.size() >> (8 * i)) & 0xff;
  frame.insert(frame.end(), body.begin(), body.end());
  return frame;
}

Bytes FrozenTelemetryFrame() {
  obs::TelemetryFrame frame;
  frame.source = "cell-1";
  frame.seq = 1;
  frame.delta.counters["c"] = 3;
  return obs::EncodeTelemetryFrame(frame);
}

/// Background class, 125 ms budget, pinned so the header bytes are exact
/// (an arm time in the future leaves the whole budget remaining).
OverloadContext FrozenOverloadContext() {
  OverloadContext ctx;
  ctx.budget_us = 125'000;
  ctx.armed_at_us = UINT64_MAX;
  ctx.criticality = Criticality::kBackground;
  return ctx;
}

TEST(WireCodecTest, FormatFreezeKnownBytes) {
  SKIP_WITHOUT_LOOPBACK();
  constexpr size_t kOps = sizeof(kFrozenOps) / sizeof(kFrozenOps[0]);
  ASSERT_EQ(kOps, kRpcOpCount);

  // 1. Requests and reply decoding, client side: a SocketTransport against
  //    a peer that answers with the frozen success replies.
  {
    FakePeer peer;
    RpcClientPool::Options pool_options;
    pool_options.connections = 1;
    SocketTransport transport("127.0.0.1", peer.port(), pool_options);
    cloud::SnapshotDescriptor snap;
    const std::vector<std::function<void()>> calls = {
        [&] {
          auto echo = transport.pool().Call(RpcOp::kPing, Bytes());
          ASSERT_TRUE(echo.ok());
          EXPECT_TRUE(echo->empty());
        },
        [&] {
          obs::TraceContext trace;
          trace.trace_id = 0x1111;
          trace.span_id = 0x2222;
          trace.parent_id = 0x3333;
          obs::ScopedTraceContext scoped(trace);
          auto put = transport.PutBlobBatch(
              {{"doc/a", Bytes{1, 2, 3}}, {"doc/b", Bytes{9, 8, 7, 6}}},
              {"tok/a", "tok/b"});
          ASSERT_TRUE(put.status.ok()) << put.status.ToString();
          EXPECT_EQ(put.versions, (std::vector<uint64_t>{1, 1}));
          EXPECT_EQ(put.acked, (std::vector<uint8_t>{1, 1}));
        },
        [&] {
          ScopedOverloadContext scope(FrozenOverloadContext());
          uint32_t delay = 99;
          auto got = transport.GetBlob("doc/a", &delay);
          ASSERT_TRUE(got.ok()) << got.status().ToString();
          EXPECT_EQ(got.value(), (Bytes{1, 2, 3}));
          EXPECT_EQ(delay, 0u);
        },
        [&] {
          auto got = transport.GetSnapshot(nullptr);
          ASSERT_TRUE(got.ok()) << got.status().ToString();
          snap = got.value();
        },
        [&] {
          auto at = transport.GetAtSnapshot("doc/b", snap, nullptr);
          ASSERT_TRUE(at.ok()) << at.status().ToString();
          EXPECT_EQ(at->data, (Bytes{9, 8, 7, 6}));
          EXPECT_EQ(at->version, 1u);
        },
        [&] {
          cloud::TxnRequest txn;
          txn.token = "txn/1";
          txn.snapshot = snap;
          txn.reads.push_back({"doc/a", 1});
          txn.writes.push_back({"doc/a", Bytes{4, 4, 4}, 1});
          auto out = transport.CommitTxn(txn);
          ASSERT_TRUE(out.status.ok()) << out.status.ToString();
          EXPECT_TRUE(out.committed);
          EXPECT_EQ(out.versions, (std::vector<uint64_t>{2}));
        },
        [&] {
          auto out = transport.ReportTelemetry(FrozenTelemetryFrame(), nullptr);
          ASSERT_TRUE(out.status.ok()) << out.status.ToString();
          EXPECT_TRUE(out.applied);
          EXPECT_EQ(out.last_seq, 1u);
        },
        [&] {
          auto json = transport.ScrapeTelemetry(nullptr);
          ASSERT_TRUE(json.ok()) << json.status().ToString();
          EXPECT_NE(json->find("\"cell-1\":1"), std::string::npos);
        },
    };
    ASSERT_EQ(calls.size(), kOps);
    for (size_t i = 0; i < kOps; ++i) {
      std::thread caller(calls[i]);
      Bytes request = peer.Answer(i == 7 ? ScrapeReply("{\"seqs\":{\"cell-1\":1}}")
                                         : FromHex(kFrozenOps[i].reply));
      caller.join();
      EXPECT_EQ(ToHex(request), kFrozenOps[i].request) << kFrozenOps[i].name;
    }
  }

  // 2. Request decoding and reply encoding, server side: the frozen
  //    requests, sent raw to a fresh provider, get the frozen replies.
  {
    CloudInfrastructure cloud;
    RpcServer server(&cloud, RpcServer::Options{});
    ASSERT_TRUE(server.Start().ok());
    int fd = ConnectTo(server.port());
    ASSERT_GE(fd, 0);
    for (const FrozenOp& op : kFrozenOps) {
      Bytes request = FromHex(op.request);
      ASSERT_EQ(::send(fd, request.data(), request.size(), MSG_NOSIGNAL),
                static_cast<ssize_t>(request.size()));
      const Bytes expected =
          &op == &kFrozenOps[7] ? ScrapeReply(cloud.telemetry_hub().ScrapeJson())
                                : FromHex(op.reply);
      EXPECT_EQ(ToHex(ReadOneFrame(fd)), ToHex(expected)) << op.name;
    }
    ::close(fd);
  }

  // 3. Status-only replies: an admission edge that refuses all background
  //    work answers ops 1-6 (sent as background) with pushback.
  std::vector<Bytes> status_only;
  {
    CloudInfrastructure cloud;
    RpcServer::Options options;
    options.admission = true;
    options.admission_config.background_fraction = 0.0;
    options.admission_config.min_retry_after_us = 2500;
    options.admission_config.max_retry_after_us = 2500;
    RpcServer server(&cloud, options);
    ASSERT_TRUE(server.Start().ok());
    int fd = ConnectTo(server.port());
    ASSERT_GE(fd, 0);
    for (size_t i = 1; i <= 6; ++i) {
      Bytes request = FromHex(kFrozenOps[i].request);
      request[7] |= 0x08;  // Criticality bits 2-3: background.
      ASSERT_EQ(::send(fd, request.data(), request.size(), MSG_NOSIGNAL),
                static_cast<ssize_t>(request.size()));
      status_only.push_back(ReadOneFrame(fd));
      EXPECT_EQ(ToHex(status_only.back()), kFrozenStatusOnly[i - 1])
          << kFrozenOps[i].name;
    }
    ::close(fd);
  }

  // 4. The client decodes every status-only reply as the shed status. The
  //    scrape's status-only body is byte-identical to the get's (status,
  //    empty string, zero delay), so its frame is the get's with op 7.
  {
    Bytes scrape = FromHex(kFrozenStatusOnly[1]);
    scrape[6] = 7;
    FakePeer peer;
    RpcClientPool::Options pool_options;
    pool_options.connections = 1;
    SocketTransport transport("127.0.0.1", peer.port(), pool_options);
    std::vector<Status> got(7);
    const std::vector<std::function<void()>> calls = {
        [&] { got[0] = transport.PutBlobBatch({{"x", Bytes{1}}}, {}).status; },
        [&] { got[1] = transport.GetBlob("x", nullptr).status(); },
        [&] { got[2] = transport.GetSnapshot(nullptr).status(); },
        [&] {
          got[3] = transport.GetAtSnapshot("x", {}, nullptr).status();
        },
        [&] { got[4] = transport.CommitTxn(cloud::TxnRequest{}).status; },
        [&] {
          got[5] = transport.ReportTelemetry(Bytes{1}, nullptr).status;
        },
        [&] { got[6] = transport.ScrapeTelemetry(nullptr).status(); },
    };
    for (size_t i = 0; i < calls.size(); ++i) {
      std::thread caller(calls[i]);
      peer.Answer(i < 6 ? FromHex(kFrozenStatusOnly[i]) : scrape);
      caller.join();
      EXPECT_EQ(got[i].code(), StatusCode::kResourceExhausted) << i;
      EXPECT_EQ(got[i].message(), "server admission limit reached") << i;
    }
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
    Bytes frame = EncodeFrame(h, Bytes());
    EXPECT_TRUE(SendThenExpectEof(fd, frame));
    ::close(fd);
  }
  // Well-formed header, undecodable payload.
  {
    int fd = ConnectTo(server->port());
    ASSERT_GE(fd, 0);
    FrameHeader h;
    h.op = RpcOp::kCommitTxn;
    Bytes frame = EncodeFrame(h, Bytes{0xff, 0xff, 0xff, 0xff});
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
  pool_options.reconnect_interval_ms = 20;
  pool_options.request_timeout_ms = 2000;
  RpcClientPool pool(pool_options);
  pool.Warmup();

  // Warmup ran before the first call: every connection is already healthy.
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
  if (tc::testing::WireHarness::SocketRequested()) {
    GTEST_SKIP() << "TC_TRANSPORT=socket is set; inertness test not "
                    "applicable in the wire leg";
  }
  CloudInfrastructure cloud;
  tc::testing::WireHarness harness(&cloud);
  EXPECT_EQ(harness.transport(), nullptr);
  EXPECT_EQ(harness.server(), nullptr);
}

}  // namespace
}  // namespace tc::rpc

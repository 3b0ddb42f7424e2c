// `vault` — the paper's secure private store as one user sees it. Closed
// loop, one client: a home-gateway cell with resilient_sync over a
// loopback SocketTransport stores one new 4 KiB document per round, then
// fetches three uniformly chosen earlier documents and byte-compares each
// with what was stored. Crypto and the TEE do most of the work here; the
// wire and the provider do little, and the store index fits the
// gateway's 512 MiB RAM budget (no log scans).
#include "cells.h"
#include "tc/common/rng.h"

namespace perfbench {

namespace {

constexpr size_t kDocBytes = 4096;
constexpr int kFetchesPerRound = 3;
constexpr int kWarmupRounds = 20;
constexpr int kSetups = 5;
/// Count metrics are taken over this many measured rounds, so a fixed
/// seed repeats them exactly whatever the run length.
constexpr uint64_t kCountRounds = 100;
/// Tail window: p99 is the median of per-window p99s (see WindowedQuantile).
constexpr size_t kTailWindow = 200;

}  // namespace

Outcome RunVault(const RunOptions& opt) {
  Outcome out;
  InitMetrics(&out);
  double setup_s = 0;
  auto made = CreateTimed(tc::tee::DeviceClass::kHomeGateway, opt.seed,
                          kSetups, &setup_s);
  if (!made.ok()) {
    out.CheckFailed("set-up: " + made.status().ToString());
    return out;
  }
  CellStack& st = **made;
  tc::Rng rng(opt.seed);
  tc::Rng trace_coin(opt.seed + 1);
  std::vector<std::pair<std::string, uint64_t>> docs;  // (doc id, payload)
  uint64_t next_payload = 0;

  bool measuring = false;
  std::vector<double> store_us, fetch_us, store_traced, store_untraced;
  CellOps ops;

  auto round = [&](bool traced) {
    uint64_t index = next_payload++;
    tc::Bytes payload = Payload(opt.seed, index, kDocBytes);
    double inner0 = traced ? TeeStorageUs() : 0;
    Clock::time_point t0 = Clock::now();
    tc::Result<std::string> id = [&] {
      Span span("cell", "store", traced);
      return st.cell->StoreDocument(Tag("d", index), Tag("k", index % 16),
                                    payload, st.owner_policy);
    }();
    double us = UsBetween(t0, Clock::now());
    if (measuring) {
      ++out.attempted;
      ++ops.stores;
      if (traced) {
        ops.store_inner_us += TeeStorageUs() - inner0;
        ++ops.traced_stores;
      }
    }
    if (!id.ok()) {
      if (measuring) ++out.failed;
    } else {
      docs.emplace_back(*id, index);
      if (measuring) {
        store_us.push_back(us);
        (traced ? store_traced : store_untraced).push_back(us);
      }
    }
    for (int f = 0; f < kFetchesPerRound && !docs.empty(); ++f) {
      const auto& [doc_id, doc_index] = docs[rng.NextBelow(docs.size())];
      inner0 = traced ? TeeStorageUs() : 0;
      t0 = Clock::now();
      tc::Result<tc::Bytes> got = [&] {
        Span span("cell", "fetch", traced);
        return st.cell->FetchDocument(doc_id);
      }();
      us = UsBetween(t0, Clock::now());
      if (measuring) {
        ++out.attempted;
        ++ops.fetches;
        if (traced) {
          ops.fetch_inner_us += TeeStorageUs() - inner0;
          ++ops.traced_fetches;
        }
      }
      if (!got.ok()) {
        if (measuring) ++out.failed;
        continue;
      }
      if (*got != Payload(opt.seed, doc_index, kDocBytes)) {
        out.CheckFailed("fetch of " + doc_id + " differs from what was stored");
      }
      if (measuring) fetch_us.push_back(us);
    }
  };

  for (int i = 0; i < kWarmupRounds; ++i) round(false);
  st.timed->Clear();
  measuring = true;
  RegistryDelta reg;
  CellCounters at_start = CellCounters::Read(st);
  Clock::time_point t_start = Clock::now();
  uint64_t rounds = 0;
  while (rounds < kCountRounds || SecondsSince(t_start) < opt.seconds) {
    round(opt.trace && trace_coin.NextBelow(2) == 0);
    ++rounds;
    if (rounds == kCountRounds) {
      SetCellCountLayers(&out, CellCounters::Read(st).Minus(at_start),
                         ops.stores + ops.fetches, ops.stores * kDocBytes,
                         st.cell->store().device()->geometry().page_size);
    }
  }
  double elapsed = SecondsSince(t_start);
  reg.Finish();
  CellCounters delta = CellCounters::Read(st).Minus(at_start);

  double user_bytes = double(docs.size()) * kDocBytes;
  double stored =
      user_bytes == 0 ? 0 : st.cloud.blob_store().total_bytes() / user_bytes;
  SetE2e(&out, "setup_s", setup_s);
  SetE2e(&out, "write_p50_us", Quantile(store_us, 0.5));
  SetE2e(&out, "read_p50_us", Quantile(fetch_us, 0.5));
  SetE2e(&out, "read_p99_us",
         WindowedQuantile(fetch_us, 0.99, kTailWindow));
  SetE2e(&out, "throughput_ops_s", (ops.stores + ops.fetches) / elapsed);
  SetE2e(&out, "stored_bytes_per_user_byte", stored);

  out.Line("vault store_p50_us = %.1f us  store_p99_us = %.1f us  (n=%zu)",
           out.e2e["write_p50_us"].value,
           WindowedQuantile(store_us, 0.99, kTailWindow), store_us.size());
  out.Line("vault fetch_p50_us = %.1f us  fetch_p99_us = %.1f us  (n=%zu)",
           out.e2e["read_p50_us"].value, out.e2e["read_p99_us"].value,
           fetch_us.size());
  out.Line("vault stored_bytes_per_user_byte = %.4f  setup_s = %.4f s",
           stored, setup_s);

  if (opt.trace) {
    SetLayer(&out, "obs.trace_overhead_frac",
             Median(store_traced) / Median(store_untraced) - 1);
    RunProbes(&out, kDocBytes, &st);
    out.spans = Tracer::Take();
    SetCellLayers(&out, reg, delta, st, out.spans, ops);
    out.registry_json = reg.ToJson();
  }
  return out;
}

}  // namespace perfbench

#include "cells.h"


#include "tc/crypto/aead.h"
#include "tc/crypto/sha256.h"

namespace perfbench {

tc::Result<std::unique_ptr<CellStack>> CellStack::Create(
    tc::tee::DeviceClass device_class, uint64_t seed) {
  auto stack = std::make_unique<CellStack>();
  stack->cloud.set_fault_injector(&stack->injector);
  tc::rpc::RpcServer::Options server_options;
  server_options.worker_threads = 2;
  stack->server =
      std::make_unique<tc::rpc::RpcServer>(&stack->cloud, server_options);
  TC_RETURN_IF_ERROR(stack->server->Start());
  tc::rpc::RpcClientPool::Options pool_options;
  pool_options.connections = 1;
  stack->socket = std::make_unique<tc::rpc::SocketTransport>(
      "127.0.0.1", stack->server->port(), pool_options);
  stack->timed = std::make_unique<TimedTransport>(stack->socket.get());

  tc::cell::TrustedCell::Config config;
  config.cell_id = "bench-cell";
  config.owner = "bench-user";
  config.device_class = device_class;
  config.resilient_sync = true;
  config.channel.seed = seed;
  config.transport = stack->timed.get();
  TC_ASSIGN_OR_RETURN(stack->cell,
                      tc::cell::TrustedCell::Create(config, &stack->cloud,
                                                    &stack->directory,
                                                    &stack->clock));
  stack->owner_policy = tc::cell::MakeOwnerPolicy(config.owner);
  return stack;
}

CellStack::~CellStack() {
  cell.reset();
  if (server) server->Shutdown();
}

tc::Result<std::unique_ptr<CellStack>> CreateTimed(
    tc::tee::DeviceClass device_class, uint64_t seed, int stacks,
    double* setup_s) {
  std::vector<double> times;
  std::unique_ptr<CellStack> kept;
  for (int i = 0; i < stacks; ++i) {
    kept.reset();
    Clock::time_point t0 = Clock::now();
    TC_ASSIGN_OR_RETURN(kept, CellStack::Create(device_class, seed));
    times.push_back(SecondsSince(t0));
  }
  *setup_s = Median(times);
  return kept;
}

CellCounters CellCounters::Read(CellStack& stack) {
  CellCounters c;
  tc::obs::MetricRegistry& reg = tc::obs::MetricRegistry::Global();
  c.seals = reg.GetHistogram("cell.seal_us").Snapshot().count;
  const tc::storage::LogStoreStats& s = stack.cell->store().stats();
  c.full_scans = s.full_scans.load();
  c.index_hits = s.index_hits.load();
  c.index_dropped = s.index_insertions_dropped.load();
  c.user_bytes = s.user_bytes_appended.load();
  tc::storage::FlashStats flash = stack.cell->store().device()->stats();
  c.flash_programs = flash.page_programs;
  c.flash_erases = flash.block_erases;
  const tc::net::ChannelStats& ch = stack.cell->net_channel()->stats();
  c.attempts = ch.attempts;
  c.ops_ok = ch.ops_ok;
  c.breaker_rejections = ch.breaker_rejections;
  c.deferred = stack.cell->stats().pushes_deferred;
  c.drained = stack.cell->stats().catchup_drained;
  c.rpc_bytes = reg.GetCounter("rpc.server.bytes_in").Value() +
                reg.GetCounter("rpc.server.bytes_out").Value();
  c.rpc_requests = reg.GetCounter("rpc.server.requests").Value();
  c.cloud_bytes = stack.cloud.blob_store().total_bytes();
  return c;
}

CellCounters CellCounters::Minus(const CellCounters& b) const {
  CellCounters d;
  d.seals = seals - b.seals;
  d.full_scans = full_scans - b.full_scans;
  d.index_hits = index_hits - b.index_hits;
  d.index_dropped = index_dropped - b.index_dropped;
  d.user_bytes = user_bytes - b.user_bytes;
  d.flash_programs = flash_programs - b.flash_programs;
  d.flash_erases = flash_erases - b.flash_erases;
  d.attempts = attempts - b.attempts;
  d.ops_ok = ops_ok - b.ops_ok;
  d.breaker_rejections = breaker_rejections - b.breaker_rejections;
  d.deferred = deferred - b.deferred;
  d.drained = drained - b.drained;
  d.rpc_bytes = rpc_bytes - b.rpc_bytes;
  d.rpc_requests = rpc_requests - b.rpc_requests;
  d.cloud_bytes = cloud_bytes - b.cloud_bytes;
  return d;
}

namespace {

double Per(double num, double den) { return den == 0 ? 0 : num / den; }

}  // namespace

void SetCellCountLayers(Outcome* out, const CellCounters& d, uint64_t ops,
                        uint64_t user_bytes, size_t page_size) {
  SetLayer(out, "tee.seals_per_op", Per(d.seals, ops));
  SetLayer(out, "storage.full_scans_per_op", Per(d.full_scans, ops));
  SetLayer(out, "storage.flash_programs_per_op", Per(d.flash_programs, ops));
  SetLayer(out, "storage.flash_erases_per_op", Per(d.flash_erases, ops));
  SetLayer(out, "storage.write_amp",
           Per(double(d.flash_programs) * page_size, d.user_bytes));
  SetLayer(out, "net.attempts_per_op", Per(d.attempts, ops));
  SetLayer(out, "rpc.bytes_per_op", Per(d.rpc_bytes, ops));
  SetLayer(out, "rpc.requests_per_cell_op", Per(d.rpc_requests, ops));
  SetLayer(out, "cloud.bytes_per_user_byte", Per(d.cloud_bytes, user_bytes));
}

void SetServerLayers(Outcome* out, const RegistryDelta& reg) {
  tc::obs::HistogramSnapshot call = reg.Histogram("rpc.client.call_us");
  tc::obs::HistogramSnapshot dispatch =
      reg.Histogram("rpc.server.dispatch_us");
  SetLayer(out, "rpc.client.call_p50_us", HistQ(call, 0.5));
  SetLayer(out, "rpc.client.call_p99_us", HistQ(call, 0.99));
  SetLayer(out, "rpc.server.dispatch_p50_us", HistQ(dispatch, 0.5));
  SetLayer(out, "rpc.server.dispatch_p99_us", HistQ(dispatch, 0.99));
  SetLayer(out, "rpc.wire_us", HistQ(call, 0.5) - HistQ(dispatch, 0.5));
  tc::obs::HistogramSnapshot wait = reg.Histogram("worker_pool.task_wait_us");
  SetLayer(out, "fleet.pool.task_wait_p50_us", HistQ(wait, 0.5));
  SetLayer(out, "fleet.pool.task_wait_p99_us", HistQ(wait, 0.99));
  SetLayer(out, "fleet.pool.task_run_p50_us",
           HistQ(reg.Histogram("worker_pool.task_run_us"), 0.5));
  tc::obs::HistogramSnapshot put = reg.Histogram("cloud.put_batch_us");
  tc::obs::HistogramSnapshot get = reg.Histogram("cloud.get_us");
  tc::obs::HistogramSnapshot txn = reg.Histogram("cloud.txn_us");
  SetLayer(out, "cloud.put_batch_p50_us", HistQ(put, 0.5));
  SetLayer(out, "cloud.put_batch_p99_us", HistQ(put, 0.99));
  SetLayer(out, "cloud.get_p50_us", HistQ(get, 0.5));
  SetLayer(out, "cloud.get_p99_us", HistQ(get, 0.99));
  SetLayer(out, "cloud.txn_p50_us", HistQ(txn, 0.5));
  SetLayer(out, "cloud.txn_p99_us", HistQ(txn, 0.99));
  SetLayer(out, "cloud.txn_aborts", reg.Counter("cloud.txn.aborts"));
}

void SetCellLayers(Outcome* out, const RegistryDelta& reg,
                   const CellCounters& d, CellStack& stack,
                   const std::vector<SpanRecord>& spans, const CellOps& ops) {
  tc::obs::HistogramSnapshot seal = reg.Histogram("cell.seal_us");
  tc::obs::HistogramSnapshot unseal = reg.Histogram("cell.unseal_us");
  SetLayer(out, "tee.seal_p50_us", HistQ(seal, 0.5));
  SetLayer(out, "tee.seal_p99_us", HistQ(seal, 0.99));
  SetLayer(out, "tee.unseal_p50_us", HistQ(unseal, 0.5));
  SetLayer(out, "tee.unseal_p99_us", HistQ(unseal, 0.99));
  SetLayer(out, "crypto.self_us_per_op",
           Per(double(seal.sum) + unseal.sum, ops.stores + ops.fetches));

  tc::obs::HistogramSnapshot append = reg.Histogram("storage.append_us");
  tc::obs::HistogramSnapshot sget = reg.Histogram("storage.get_us");
  tc::obs::HistogramSnapshot gc = reg.Histogram("storage.gc_us");
  SetLayer(out, "storage.append_p50_us", HistQ(append, 0.5));
  SetLayer(out, "storage.append_p99_us", HistQ(append, 0.99));
  SetLayer(out, "storage.get_p50_us", HistQ(sget, 0.5));
  SetLayer(out, "storage.get_p99_us", HistQ(sget, 0.99));
  SetLayer(out, "storage.index_hit_ratio",
           Per(d.index_hits, d.index_hits + d.full_scans));
  SetLayer(out, "storage.index_dropped", d.index_dropped);
  SetLayer(out, "storage.gc_runs", reg.Counter("storage.gc_runs"));
  SetLayer(out, "storage.gc_us", gc.sum);

  std::map<std::string, std::vector<double>> calls = stack.timed->Calls();
  for (const char* op : {"put", "get"}) {
    SetLayer(out, std::string("net.call_p50_us.") + op,
             Quantile(calls[op], 0.5));
    SetLayer(out, std::string("net.call_p99_us.") + op,
             Quantile(calls[op], 0.99));
  }
  SetLayer(out, "net.useful_attempt_ratio", Per(d.ops_ok, d.attempts));
  SetLayer(out, "net.breaker_rejections", d.breaker_rejections);
  SetLayer(out, "net.deferred", d.deferred);
  SetLayer(out, "net.drained", d.drained);

  SetServerLayers(out, reg);
  SetLayer(out, "cloud.blob_lock_contention",
           stack.cloud.blob_lock_contention());

  // Cell self time: the op span minus its net child spans, minus the tee
  // and storage time recorded inside the same traced ops.
  SetLayer(out, "cell.self_us.store",
           MeanSelfUs(spans, "cell", "store") -
               Per(ops.store_inner_us, ops.traced_stores));
  SetLayer(out, "cell.self_us.fetch",
           MeanSelfUs(spans, "cell", "fetch") -
               Per(ops.fetch_inner_us, ops.traced_fetches));
}

double TeeStorageUs() {
  tc::obs::MetricRegistry& reg = tc::obs::MetricRegistry::Global();
  double us = 0;
  for (const char* name :
       {"cell.seal_us", "cell.unseal_us", "storage.append_us",
        "storage.get_us"}) {
    us += reg.GetHistogram(name).Snapshot().sum;
  }
  return us;
}

void RunProbes(Outcome* out, size_t payload, CellStack* stack) {
  const tc::Bytes key = Payload(7, 1, 32);
  const tc::Bytes nonce = Payload(7, 2, tc::crypto::kAeadNonceSize);
  const tc::Bytes aad = Payload(7, 3, 16);
  const tc::Bytes plain = Payload(7, 4, payload);
  std::vector<double> seal_us, open_us;
  for (int i = 0; i < 200; ++i) {
    Clock::time_point t0 = Clock::now();
    tc::Result<tc::Bytes> sealed = [&] {
      Span span("crypto", "seal");
      return tc::crypto::AeadSeal(key, nonce, aad, plain);
    }();
    Clock::time_point t1 = Clock::now();
    if (!sealed.ok()) {
      out->CheckFailed("probe AeadSeal failed");
      return;
    }
    tc::Result<tc::Bytes> opened = [&] {
      Span span("crypto", "open");
      return tc::crypto::AeadOpen(key, nonce, aad, *sealed);
    }();
    Clock::time_point t2 = Clock::now();
    if (!opened.ok() || *opened != plain) {
      out->CheckFailed("probe AeadOpen did not return the sealed bytes");
      return;
    }
    seal_us.push_back(UsBetween(t0, t1));
    open_us.push_back(UsBetween(t1, t2));
  }
  SetLayer(out, "crypto.aead_seal_us", Median(seal_us));
  SetLayer(out, "crypto.aead_open_us", Median(open_us));

  const tc::Bytes block = Payload(7, 5, 1 << 20);
  std::vector<double> mb_s;
  for (int i = 0; i < 8; ++i) {
    Span span("crypto", "sha256");
    Clock::time_point t0 = Clock::now();
    tc::crypto::Sha256 h;
    h.Update(block);
    tc::Bytes digest = h.Finish();
    double s = SecondsSince(t0);
    if (digest.size() != 32) out->CheckFailed("probe SHA-256 digest size");
    mb_s.push_back(1.0 / s);
  }
  SetLayer(out, "crypto.sha256_mb_s", Median(mb_s));

  if (stack == nullptr) return;
  tc::policy::AccessRequest request{stack->cell->owner(),
                                    tc::policy::Right::kRead,
                                    {},
                                    stack->clock.Now()};
  std::vector<double> eval_us;
  for (int i = 0; i < 500; ++i) {
    Span span("policy", "evaluate");
    Clock::time_point t0 = Clock::now();
    tc::policy::Decision d =
        stack->cell->pdp().EvaluateAndConsume(stack->owner_policy, request);
    eval_us.push_back(UsBetween(t0, Clock::now()));
    if (!d.allowed) {
      out->CheckFailed("owner policy denied the owner");
      return;
    }
  }
  SetLayer(out, "policy.evaluate_us", Median(eval_us));
}

}  // namespace perfbench

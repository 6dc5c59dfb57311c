// End-to-end tests of the vRead system: local (co-located) and remote
// (RDMA / TCP) shortcut reads through the full HDFS client, correctness of
// the fallback path, write-once visibility via vRead_update, the copy-count
// structural property, and the headline performance claims (faster + fewer
// CPU cycles than vanilla).
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <ostream>
#include <vector>

#include "apps/cluster.h"
#include "apps/dfsio.h"
#include "core/libvread.h"
#include "core/vread_daemon.h"
#include "fault/fault.h"
#include "hdfs/dfs_client.h"
#include "mem/buffer.h"
#include "sim/sync.h"
#include "testutil.h"

namespace vread::core {
namespace {

using apps::Cluster;
using apps::ClusterConfig;
using apps::DfsIoResult;
using apps::TestDfsIo;
using mem::Buffer;
using testutil::Bed;
using testutil::small_blocks;

TEST(VReadLocal, ColocatedReadReturnsIdenticalBytes) {
  Bed bed;
  const std::uint64_t size = 10 * 1024 * 1024;
  bed.cluster.preload_file("/data", size, 31, {{"datanode1"}});
  bed.cluster.enable_vread();
  bed.cluster.drop_all_caches();
  DfsIoResult r;
  bed.cluster.sim().spawn(
      TestDfsIo::read(bed.cluster, "client", "/data", 1 << 20, r));
  bed.cluster.sim().run();
  EXPECT_EQ(r.bytes, size);
  EXPECT_EQ(r.checksum, Buffer::deterministic(31, 0, size).checksum());
  VReadDaemon* d = bed.cluster.daemon("host1");
  EXPECT_GT(d->reads(), 0u);
  EXPECT_EQ(d->bytes_read(), size);
  EXPECT_EQ(d->failed_opens(), 0u);
  // The datanode process never served a byte: true shortcut.
  EXPECT_EQ(bed.cluster.datanode("datanode1")->bytes_served(), 0u);
}

TEST(VReadLocal, FasterAndCheaperThanVanilla) {
  auto run = [](bool vread) {
    Bed bed;
    const std::uint64_t size = 16 * 1024 * 1024;
    bed.cluster.preload_file("/data", size, 32, {{"datanode1"}});
    if (vread) bed.cluster.enable_vread();
    bed.cluster.drop_all_caches();
    DfsIoResult r;
    bed.cluster.sim().spawn(
        TestDfsIo::read(bed.cluster, "client", "/data", 1 << 20, r));
    bed.cluster.sim().run();
    EXPECT_EQ(r.checksum, Buffer::deterministic(32, 0, size).checksum());
    // total CPU across client VM, datanode VM and host-side daemons
    double total_cpu = bed.cluster.window_cpu_ms(apps::Cluster::Window{}, "client") +
                       bed.cluster.window_cpu_ms(apps::Cluster::Window{}, "datanode1") +
                       bed.cluster.window_cpu_ms(apps::Cluster::Window{}, "host1");
    return std::pair{r, total_cpu};
  };
  auto [vanilla, vanilla_cpu] = run(false);
  auto [vr, vread_cpu] = run(true);
  EXPECT_GT(vr.throughput_mbps, vanilla.throughput_mbps);
  EXPECT_LT(vread_cpu, vanilla_cpu);
  EXPECT_LT(vr.cpu_time_ms, vanilla.cpu_time_ms);  // client-side CPU savings
}

TEST(VReadLocal, RereadServedFromHostPageCache) {
  Bed bed;
  const std::uint64_t size = 8 * 1024 * 1024;
  bed.cluster.preload_file("/data", size, 33, {{"datanode1"}});
  bed.cluster.enable_vread();
  bed.cluster.drop_all_caches();
  DfsIoResult cold, warm;
  bed.cluster.sim().spawn(TestDfsIo::read(bed.cluster, "client", "/data", 1 << 20, cold));
  bed.cluster.sim().run();
  const std::uint64_t disk_after_cold = bed.cluster.host("host1")->disk().bytes_read();
  bed.cluster.sim().spawn(TestDfsIo::read(bed.cluster, "client", "/data", 1 << 20, warm));
  bed.cluster.sim().run();
  EXPECT_EQ(bed.cluster.host("host1")->disk().bytes_read(), disk_after_cold);
  EXPECT_GT(warm.throughput_mbps, cold.throughput_mbps);
  EXPECT_EQ(warm.checksum, cold.checksum);
}

TEST(VReadRemote, RdmaReadReturnsIdenticalBytes) {
  Bed bed;
  const std::uint64_t size = 10 * 1024 * 1024;
  bed.cluster.preload_file("/data", size, 34, {{"datanode2"}});  // remote only
  bed.cluster.enable_vread(VReadDaemon::Transport::kRdma);
  bed.cluster.drop_all_caches();
  DfsIoResult r;
  bed.cluster.sim().spawn(TestDfsIo::read(bed.cluster, "client", "/data", 1 << 20, r));
  bed.cluster.sim().run();
  EXPECT_EQ(r.checksum, Buffer::deterministic(34, 0, size).checksum());
  EXPECT_GT(bed.cluster.daemon("host1")->remote_reads(), 0u);
  EXPECT_GT(bed.cluster.daemon("host2")->reads(), 0u);  // served by peer mount
  EXPECT_EQ(bed.cluster.datanode("datanode2")->bytes_served(), 0u);
  // RDMA cycles on both hosts; zero vRead-net cycles.
  EXPECT_GT(bed.cluster.acct().group_total("host1", metrics::CycleCategory::kRdma), 0u);
  EXPECT_GT(bed.cluster.acct().group_total("host2", metrics::CycleCategory::kRdma), 0u);
  EXPECT_EQ(bed.cluster.acct().group_total("host1", metrics::CycleCategory::kVreadNet),
            0u);
}

TEST(VReadRemote, TcpTransportWorksButCostsMoreCpu) {
  auto run = [](VReadDaemon::Transport t) {
    Bed bed;
    const std::uint64_t size = 10 * 1024 * 1024;
    bed.cluster.preload_file("/data", size, 35, {{"datanode2"}});
    bed.cluster.enable_vread(t);
    bed.cluster.drop_all_caches();
    DfsIoResult r;
    bed.cluster.sim().spawn(TestDfsIo::read(bed.cluster, "client", "/data", 1 << 20, r));
    bed.cluster.sim().run();
    EXPECT_EQ(r.checksum, Buffer::deterministic(35, 0, size).checksum());
    const sim::Cycles daemon_cycles =
        bed.cluster.acct().group_total("host1") + bed.cluster.acct().group_total("host2") -
        bed.cluster.acct().group_total("client") -
        bed.cluster.acct().group_total("datanode1") -
        bed.cluster.acct().group_total("datanode2");
    (void)daemon_cycles;
    const sim::Cycles host_cycles =
        bed.cluster.acct().group_total("host1", metrics::CycleCategory::kRdma) +
        bed.cluster.acct().group_total("host2", metrics::CycleCategory::kRdma) +
        bed.cluster.acct().group_total("host1", metrics::CycleCategory::kVreadNet) +
        bed.cluster.acct().group_total("host2", metrics::CycleCategory::kVreadNet);
    return host_cycles;
  };
  sim::Cycles rdma = run(VReadDaemon::Transport::kRdma);
  sim::Cycles tcp = run(VReadDaemon::Transport::kTcp);
  EXPECT_GT(tcp, rdma * 3);  // user-space TCP burns far more transport CPU
}

TEST(VReadFallback, UnknownBlockFallsBackToVanillaPath) {
  Bed bed;
  const std::uint64_t size = 4 * 1024 * 1024;
  bed.cluster.preload_file("/data", size, 36, {{"datanode1"}});
  bed.cluster.enable_vread();
  // Sabotage: the daemon forgets datanode1 entirely (e.g. migration race).
  bed.cluster.daemon("host1")->unregister_datanode("datanode1");
  DfsIoResult r;
  bed.cluster.sim().spawn(TestDfsIo::read(bed.cluster, "client", "/data", 1 << 20, r));
  bed.cluster.sim().run();
  // Data still correct — served by the vanilla datanode path.
  EXPECT_EQ(r.checksum, Buffer::deterministic(36, 0, size).checksum());
  EXPECT_GT(bed.cluster.datanode("datanode1")->bytes_served(), 0u);
  EXPECT_EQ(bed.cluster.daemon("host1")->reads(), 0u);
}

TEST(VReadVisibility, TimedWriteThenVReadReadViaUpdate) {
  Bed bed;
  bed.cluster.enable_vread();  // daemons mounted BEFORE any data exists
  const std::uint64_t size = 6 * 1024 * 1024;
  DfsIoResult wr, rd;
  bed.cluster.sim().spawn(TestDfsIo::write(bed.cluster, "client", "/out", size, 37,
                                           Cluster::place_on({"datanode1"}), wr));
  bed.cluster.sim().run();
  EXPECT_GT(bed.cluster.daemon("host1")->refreshes(), 0u);  // vRead_update fired
  bed.cluster.sim().spawn(TestDfsIo::read(bed.cluster, "client", "/out", 1 << 20, rd));
  bed.cluster.sim().run();
  EXPECT_EQ(rd.checksum, Buffer::deterministic(37, 0, size).checksum());
  // The read went through the daemon, not the datanode service.
  EXPECT_GT(bed.cluster.daemon("host1")->reads(), 0u);
  EXPECT_EQ(bed.cluster.datanode("datanode1")->bytes_served(), 0u);
  EXPECT_EQ(bed.cluster.daemon("host1")->failed_opens(), 0u);
}

TEST(VReadCopies, TwoCopyStructureOfShortcutPath) {
  Bed bed;
  const std::uint64_t size = 8 * 1024 * 1024;
  bed.cluster.preload_file("/data", size, 38, {{"datanode1"}});
  bed.cluster.enable_vread();
  bed.cluster.drop_all_caches();
  DfsIoResult r;
  bed.cluster.sim().spawn(TestDfsIo::read(bed.cluster, "client", "/data", 1 << 20, r));
  bed.cluster.sim().run();
  const double per_copy = static_cast<double>(bed.cluster.costs().copy_cost(size));
  // Ring copies: daemon->ring + ring->app = 2 per byte (plus slot overheads).
  const double ring_cycles = static_cast<double>(
      bed.cluster.acct().group_total("host1", metrics::CycleCategory::kVreadBufferCopy) +
      bed.cluster.acct().group_total("client", metrics::CycleCategory::kVreadBufferCopy));
  EXPECT_NEAR(ring_cycles / per_copy, 2.0, 0.25);
  // No vanilla-path copies at all: no virtio-net, no vhost on the client VM.
  EXPECT_EQ(bed.cluster.acct().group_total("datanode1", metrics::CycleCategory::kVirtioCopy),
            0u);
  EXPECT_EQ(bed.cluster.acct().group_total("client", metrics::CycleCategory::kGuestNetRx),
            0u);
}

TEST(VReadApi, Table1FunctionsWorkDirectly) {
  Bed bed;
  const std::uint64_t size = 2 * 1024 * 1024;
  bed.cluster.preload_file("/data", size, 39, {{"datanode1"}});
  bed.cluster.enable_vread();
  LibVread* lib = bed.cluster.libvread("client");
  ASSERT_NE(lib, nullptr);
  const std::string blk =
      bed.cluster.namenode().all_blocks("/data").front().name;

  auto proc = [](LibVread& l, const std::string& name, Buffer& out1, Buffer& out2,
                 vread::Status& seek_status, vread::Status& close_status) -> sim::Task {
    std::uint64_t vfd = 0;
    vread::Status st;
    co_await l.vread_open(name, "datanode1", vfd, st);
    co_await l.vread_read(vfd, 1000, out1, st);          // offset 0..1000
    co_await l.vread_seek(vfd, 500'000, seek_status);    // jump
    co_await l.vread_read(vfd, 1000, out2, st);          // offset 500k..
    co_await l.vread_close(vfd, close_status);
  };
  Buffer a, b;
  vread::Status seek_status(vread::StatusCode::kUnknown);
  vread::Status close_status(vread::StatusCode::kUnknown);
  bed.cluster.sim().spawn(proc(*lib, blk, a, b, seek_status, close_status));
  bed.cluster.sim().run();
  EXPECT_EQ(a, Buffer::deterministic(39, 0, 1000));
  EXPECT_EQ(b, Buffer::deterministic(39, 500'000, 1000));
  EXPECT_TRUE(seek_status.ok()) << seek_status.to_string();
  EXPECT_TRUE(close_status.ok()) << close_status.to_string();
}

TEST(VReadApi, OpenUnknownBlockFails) {
  Bed bed;
  bed.cluster.enable_vread();
  LibVread* lib = bed.cluster.libvread("client");
  auto proc = [](LibVread& l, std::uint64_t& vfd_out) -> sim::Task {
    vread::Status st;
    co_await l.vread_open("blk_99999", "datanode1", vfd_out, st);
  };
  std::uint64_t vfd = 123;
  bed.cluster.sim().spawn(proc(*lib, vfd));
  bed.cluster.sim().run();
  EXPECT_EQ(vfd, 0u);  // no descriptor -> HDFS would fall back
  EXPECT_GT(bed.cluster.daemon("host1")->failed_opens(), 0u);
}

TEST(VReadHybrid, MixedLocalAndRemoteBlocks) {
  Bed bed;
  const std::uint64_t size = 16 * 1024 * 1024;  // 4 blocks
  // Round-robin placement: blocks alternate datanode1 (local) / datanode2.
  bed.cluster.preload_file("/data", size, 40, {{"datanode1"}, {"datanode2"}});
  bed.cluster.enable_vread();
  bed.cluster.drop_all_caches();
  DfsIoResult r;
  bed.cluster.sim().spawn(TestDfsIo::read(bed.cluster, "client", "/data", 1 << 20, r));
  bed.cluster.sim().run();
  EXPECT_EQ(r.checksum, Buffer::deterministic(40, 0, size).checksum());
  EXPECT_GT(bed.cluster.daemon("host1")->reads(), 0u);        // local shortcut
  EXPECT_GT(bed.cluster.daemon("host1")->remote_reads(), 0u); // remote shortcut
}

TEST(VReadDeterminism, SameSeedSameCyclesAndTiming) {
  auto run_once = [] {
    Bed bed;
    bed.cluster.preload_file("/data", 8 * 1024 * 1024, 41, {{"datanode1"}});
    bed.cluster.enable_vread();
    bed.cluster.drop_all_caches();
    DfsIoResult r;
    bed.cluster.sim().spawn(TestDfsIo::read(bed.cluster, "client", "/data", 1 << 20, r));
    bed.cluster.sim().run();
    return std::tuple{bed.cluster.sim().now(), r.checksum,
                      bed.cluster.acct().group_total("client"),
                      bed.cluster.acct().group_total("host1")};
  };
  EXPECT_EQ(run_once(), run_once());
}

// ---- serve-path event-order pin ----
//
// One small bed per daemon serve path, run with the dispatch digest on.
// The constants pin the exact event order, so a refactor of the daemon's
// read pipeline must reproduce them bit for bit. Re-record them only for
// an intended model change, and say so in CHANGES.md.

struct PinOutcome {
  std::uint64_t checksum = 0;  // folded over every read in the bed
  sim::SimTime now = 0;
  std::uint64_t digest = 0;
  bool operator==(const PinOutcome&) const = default;
};

std::ostream& operator<<(std::ostream& os, const PinOutcome& o) {
  return os << "{" << o.checksum << "ULL, " << o.now << ", " << o.digest << "ULL}";
}

// `path` by value: spawned coroutines outlive the caller's temporaries.
sim::Task pin_pread(hdfs::DfsClient* client, std::string path, std::uint64_t len,
                    std::uint64_t* checksum, sim::Latch* done) {
  std::unique_ptr<hdfs::DfsInputStream> in;
  co_await client->open(path, in);
  Buffer data;
  co_await in->pread(0, len, data);
  *checksum = data.size() == len ? data.checksum() : 0;
  co_await in->close();
  if (done != nullptr) done->count_down();
}

sim::Task pin_overlapping(Cluster* c, std::size_t readers, std::uint64_t len,
                          std::vector<std::uint64_t>* sums) {
  sim::Latch done(c->sim(), readers);
  for (std::size_t i = 0; i < readers; ++i) {
    c->sim().spawn(pin_pread(c->client("client"), "/f", len, &(*sums)[i], &done));
  }
  co_await done.wait();
}

constexpr std::uint64_t kPinBytes = 8 * 1024 * 1024;

struct PinBed {
  std::unique_ptr<Cluster> c;
  std::uint64_t fold = 0;
  explicit PinBed(std::unique_ptr<Cluster> cluster) : c(std::move(cluster)) {
    c->sim().enable_dispatch_digest();
  }
  void enable(DaemonConfig dc) {
    c->enable_vread(testutil::validated(dc));
    c->drop_all_caches();
  }
  void add(std::uint64_t sum) { fold = fold * 1099511628211ULL + sum; }
  void dfsio(const std::string& vm) {
    DfsIoResult r;
    c->sim().spawn(TestDfsIo::read(*c, vm, "/f", 1 << 20, r));
    c->sim().run();
    add(r.checksum);
  }
  void pread(const std::string& vm) {
    std::uint64_t sum = 0;
    c->run_job(pin_pread(c->client(vm), "/f", kPinBytes, &sum, nullptr));
    add(sum);
  }
  void overlapping(std::size_t readers) {
    std::vector<std::uint64_t> sums(readers, 0);
    c->run_job(pin_overlapping(c.get(), readers, kPinBytes, &sums));
    for (std::uint64_t s : sums) add(s);
  }
  PinOutcome outcome() const {
    return PinOutcome{fold, c->sim().now(), c->sim().dispatch_digest()};
  }
};

DaemonConfig pin_config(VReadDaemon::Transport t = VReadDaemon::Transport::kRdma,
                        bool peer_tier = false) {
  DaemonConfig dc;
  dc.transport = t;
  dc.workers = 4;
  dc.peer_cache.enabled = peer_tier;
  return dc;
}

hdfs::HedgeConfig pin_hedge() {
  hdfs::HedgeConfig hc;
  hc.enabled = true;
  hc.min_delay = sim::us(100);
  hc.max_delay = sim::us(200);
  hc.warmup = 1u << 30;
  return hc;
}

// Three hosts in one rack with the file on `replicas`.
std::unique_ptr<Cluster> pin_racked(std::vector<std::string> replicas) {
  auto c = testutil::racked_bed(3, 3, 0, 0);
  c->preload_file("/f", kPinBytes, 52, {std::move(replicas)});
  return c;
}

PinOutcome pin_local() {
  PinBed b(testutil::local_bed(kPinBytes, 51));
  b.enable(DaemonConfig{});
  b.dfsio("client");
  return b.outcome();
}

PinOutcome pin_local_coalesced() {
  PinBed b(testutil::local_bed(kPinBytes, 51));
  b.enable(pin_config());
  b.overlapping(4);
  return b.outcome();
}

PinOutcome pin_direct_read() {
  PinBed b(testutil::local_bed(kPinBytes, 51));
  DaemonConfig dc;
  dc.direct_read = true;
  b.enable(dc);
  b.dfsio("client");
  return b.outcome();
}

PinOutcome pin_remote(VReadDaemon::Transport t) {
  PinBed b(testutil::remote_bed(kPinBytes, 51));
  b.enable(DaemonConfig{.transport = t});
  b.dfsio("client");
  return b.outcome();
}

PinOutcome pin_remote_coalesced() {
  PinBed b(testutil::remote_bed(kPinBytes, 51));
  b.enable(pin_config());
  b.overlapping(4);
  return b.outcome();
}

// client2 misses everywhere (owner fallback); client3 then finds client2's
// host in the copyset (peer hit).
PinOutcome pin_peer_tier(VReadDaemon::Transport t, bool second_reader) {
  PinBed b(pin_racked({"datanode1"}));
  b.enable(pin_config(t, /*peer_tier=*/true));
  b.pread("client2");
  if (second_reader) b.pread("client3");
  return b.outcome();
}

// A local read that the peer tier serves: client2's remote read seeds
// host2's cache, host1 forgets its own copy, client1 reads locally.
PinOutcome pin_local_peer_hit() {
  PinBed b(pin_racked({"datanode1"}));
  b.enable(pin_config(VReadDaemon::Transport::kTcp, /*peer_tier=*/true));
  b.pread("client2");
  b.c->daemon("host1")->cache().clear();
  b.pread("client1");
  return b.outcome();
}

PinOutcome pin_hedged(std::vector<std::string> replicas) {
  PinBed b(pin_racked(std::move(replicas)));
  b.enable(pin_config());
  b.c->client("client1")->set_hedge(pin_hedge());
  b.pread("client1");
  b.pread("client1");
  return b.outcome();
}

PinOutcome pin_hedged_peer_tier() {
  auto c = testutil::racked_bed(4, 2, 0, 0);
  c->preload_file("/f", kPinBytes, 52, {{"datanode1", "datanode2"}});
  PinBed b(std::move(c));
  b.enable(pin_config(VReadDaemon::Transport::kRdma, /*peer_tier=*/true));
  b.pread("client3");
  b.c->client("client4")->set_hedge(pin_hedge());
  b.pread("client4");
  return b.outcome();
}

// Seeded faults on every remote source: the fault points' evaluation
// order is part of what the digest pins.
PinOutcome pin_faults() {
  PinBed b(pin_racked({"datanode1"}));
  b.enable(pin_config(VReadDaemon::Transport::kRdma, /*peer_tier=*/true));
  fault::registry().arm(fault::points::kPeerDown, testutil::prob(0.2));
  fault::registry().arm(fault::points::kRdmaDown, testutil::prob(0.3));
  fault::registry().arm(fault::points::kPeerCachePeerDown, testutil::prob(0.3));
  b.pread("client2");
  b.pread("client3");
  b.c->client("client1")->set_hedge(pin_hedge());
  b.pread("client1");
  return b.outcome();
}

// The same faults on the whole-leg remote stream, with overlapping
// readers so a failed fill fans out to its waiters.
PinOutcome pin_stream_faults() {
  PinBed b(testutil::remote_bed(kPinBytes, 51));
  b.enable(pin_config());
  fault::registry().arm(fault::points::kPeerDown, testutil::prob(0.2));
  fault::registry().arm(fault::points::kRdmaDown, testutil::prob(0.3));
  b.overlapping(3);
  return b.outcome();
}

TEST(VReadServePin, EveryServePathKeepsItsEventOrder) {
  if (testutil::chaos_baseline()) GTEST_SKIP() << "a global fault schedule reorders events";
  using T = VReadDaemon::Transport;
  struct Row {
    const char* name;
    std::function<PinOutcome()> run;
    PinOutcome want;
  };
  const Row rows[] = {
      {"local shortcut", pin_local, {13402269566769254246ULL, 55014460, 10157142534737607120ULL}},
      {"overlapping local readers", pin_local_coalesced,
       {7297561170272428080ULL, 113593943, 5111777259850522654ULL}},
      {"direct read", pin_direct_read,
       {13402269566769254246ULL, 79172284, 18308307497817278669ULL}},
      {"remote stream rdma", [] { return pin_remote(T::kRdma); },
       {13402269566769254246ULL, 55099668, 13641498601917540549ULL}},
      {"remote stream tcp", [] { return pin_remote(T::kTcp); },
       {13402269566769254246ULL, 56289846, 9647771479488103352ULL}},
      {"overlapping remote readers", pin_remote_coalesced,
       {7297561170272428080ULL, 102824926, 6032298652240660692ULL}},
      {"peer tier owner fallback", [] { return pin_peer_tier(T::kRdma, false); },
       {17052177788810381966ULL, 63405392, 12031048414896351339ULL}},
      {"peer tier peer hit rdma", [] { return pin_peer_tier(T::kRdma, true); },
       {16369137401535330776ULL, 86169244, 13794960444124765693ULL}},
      {"peer tier peer hit tcp", [] { return pin_peer_tier(T::kTcp, true); },
       {16369137401535330776ULL, 90442952, 15489318165432734083ULL}},
      {"local read peer hit", pin_local_peer_hit,
       {16369137401535330776ULL, 90178263, 5118727656250896797ULL}},
      {"hedged local shortcut",
       [] { return pin_hedged({"datanode1", "datanode2", "datanode3"}); },
       {16369137401535330776ULL, 100276889, 5634356360473937061ULL}},
      {"hedged remote stream", [] { return pin_hedged({"datanode2", "datanode3"}); },
       {16369137401535330776ULL, 101364443, 13214521998056785863ULL}},
      {"hedged peer tier", pin_hedged_peer_tier,
       {16369137401535330776ULL, 99155571, 17102989620505879037ULL}},
      {"seeded faults on the peer tier", pin_faults,
       {104352387478049942ULL, 214226049, 7897912006300413158ULL}},
      {"seeded faults on the remote stream", pin_stream_faults,
       {15804448954587439886ULL, 84406852, 9270619254927063089ULL}},
  };
  for (const Row& row : rows) {
    testutil::RegistryGuard guard;
    EXPECT_EQ(row.run(), row.want) << row.name;
  }
}

}  // namespace
}  // namespace vread::core

// Tests for the workload/application layer: cluster assembly, TestDFSIO,
// netperf, the HBase/Hive/Sqoop analytics workloads, lookbusy, measurement
// windows, and the elastic operations (migration, direct-read mode).
#include <gtest/gtest.h>

#include "apps/cluster.h"
#include "apps/dfsio.h"
#include "apps/hbase.h"
#include "apps/hive.h"
#include "apps/netperf.h"
#include "apps/sqoop.h"
#include "apps/table.h"
#include "core/vread_daemon.h"
#include "fs/disk_image.h"
#include "fs/simfs.h"
#include "mem/buffer.h"

namespace vread::apps {
namespace {

using mem::Buffer;

ClusterConfig fast_cfg() {
  ClusterConfig cfg;
  cfg.block_size = 4 * 1024 * 1024;
  return cfg;
}

struct Bed {
  Cluster cluster;
  explicit Bed(ClusterConfig cfg = fast_cfg()) : cluster(cfg) {
    cluster.add_host("host1");
    cluster.add_host("host2");
    cluster.add_vm("host1", "client");
    cluster.create_namenode("client");
    cluster.add_datanode("host1", "datanode1");
    cluster.add_datanode("host2", "datanode2");
    cluster.add_client("client");
  }
};

TEST(ClusterBuild, TopologyAccessors) {
  Bed bed;
  Cluster& c = bed.cluster;
  EXPECT_NE(c.host("host1"), nullptr);
  EXPECT_EQ(c.host("hostX"), nullptr);
  EXPECT_NE(c.vm("client"), nullptr);
  EXPECT_NE(c.datanode("datanode1"), nullptr);
  EXPECT_EQ(c.datanode("datanodeX"), nullptr);
  EXPECT_NE(c.client("client"), nullptr);
  EXPECT_EQ(c.client("nope"), nullptr);
  EXPECT_FALSE(c.vread_enabled());
  c.enable_vread();
  EXPECT_TRUE(c.vread_enabled());
  EXPECT_NE(c.daemon("host1"), nullptr);
  EXPECT_NE(c.libvread("client"), nullptr);
  EXPECT_TRUE(c.daemon("host1")->knows_datanode("datanode1"));
  EXPECT_TRUE(c.daemon("host1")->knows_datanode("datanode2"));  // remote entry
}

TEST(ClusterBuild, DuplicateOrMissingNamesThrow) {
  Bed bed;
  EXPECT_THROW(bed.cluster.add_vm("nope", "x"), std::runtime_error);
  EXPECT_THROW(bed.cluster.add_client("ghost"), std::runtime_error);
}

TEST(ClusterData, PreloadPlacementAndIntegrity) {
  Bed bed;
  Cluster& c = bed.cluster;
  // 3 blocks, round-robin across the two datanodes.
  c.preload_file("/t", 12 * 1024 * 1024, 5, {{"datanode1"}, {"datanode2"}});
  auto blocks = c.namenode().all_blocks("/t");
  ASSERT_EQ(blocks.size(), 3u);
  EXPECT_EQ(blocks[0].locations.front(), "datanode1");
  EXPECT_EQ(blocks[1].locations.front(), "datanode2");
  EXPECT_EQ(blocks[2].locations.front(), "datanode1");
  // Block files really exist with the right deterministic bytes.
  auto* dn2 = c.datanode("datanode2");
  auto ino = dn2->vm().fs().lookup(hdfs::DataNode::block_path(blocks[1].name));
  ASSERT_TRUE(ino.has_value());
  EXPECT_EQ(dn2->vm().fs().read(*ino, 0, 100),
            Buffer::deterministic(5, 4 * 1024 * 1024, 100));
}

TEST(ClusterData, ReplicasOfAPreloadedBlockShareStorage) {
  Bed bed;
  Cluster& c = bed.cluster;
  c.preload_file("/r", 1024 * 1024, 6, {{"datanode1", "datanode2"}});
  const std::string path = hdfs::DataNode::block_path(c.namenode().all_blocks("/r")[0].name);
  constexpr std::uint64_t kChunk = fs::DiskImage::kChunkSize;
  // Each replica's first whole image chunk inside the block file, rebased
  // to the address its file byte 0 would have in the same storage.
  auto storage_base = [&](const std::string& dn_id) {
    virt::Vm& vm = c.datanode(dn_id)->vm();
    const fs::Inode ino =
        fs::layout::read_inode(*vm.disk_image(), vm.fs().superblock(), *vm.fs().lookup(path));
    const std::uint64_t start = std::uint64_t{ino.extents[0].start_block} * fs::kFsBlockSize;
    const std::uint64_t chunk_start = (start + kChunk - 1) / kChunk * kChunk;
    const Buffer chunk = vm.disk_image()->read(chunk_start, kChunk);
    EXPECT_EQ(chunk, Buffer::deterministic(6, chunk_start - start, kChunk));
    return chunk.data() - (chunk_start - start);
  };
  EXPECT_EQ(storage_base("datanode1"), storage_base("datanode2"));
}

TEST(ClusterRun, RunJobTimesOut) {
  Bed bed;
  auto forever = [](Cluster* c) -> sim::Task {
    for (;;) co_await c->sim().delay(sim::sec(1));
  };
  EXPECT_THROW(bed.cluster.run_job(forever(&bed.cluster), sim::sec(5)),
               std::runtime_error);
}

TEST(DfsIo, ReadReportsConsistentMetrics) {
  Bed bed;
  Cluster& c = bed.cluster;
  c.preload_file("/d", 8 * 1024 * 1024, 6, {{"datanode1"}});
  c.drop_all_caches();
  DfsIoResult r;
  c.run_job(TestDfsIo::read(c, "client", "/d", 1 << 20, r));
  EXPECT_EQ(r.bytes, 8u * 1024 * 1024);
  EXPECT_GT(r.elapsed, 0);
  EXPECT_NEAR(r.throughput_mbps,
              static_cast<double>(r.bytes) / sim::to_seconds(r.elapsed) / 1e6, 0.01);
  EXPECT_GT(r.cpu_time_ms, 0.0);
  EXPECT_EQ(r.checksum, Buffer::deterministic(6, 0, r.bytes).checksum());
}

TEST(DfsIo, WriteThenReadRoundTrip) {
  Bed bed;
  Cluster& c = bed.cluster;
  DfsIoResult wr, rd;
  c.run_job(TestDfsIo::write(c, "client", "/w", 6 * 1024 * 1024, 7,
                             Cluster::place_on({"datanode1"}), wr));
  EXPECT_GT(wr.throughput_mbps, 0.0);
  c.run_job(TestDfsIo::read(c, "client", "/w", 1 << 20, rd));
  EXPECT_EQ(rd.checksum, wr.checksum);
}

TEST(NetperfApp, TransactionRateReasonable) {
  ClusterConfig cfg;
  Cluster c(cfg);
  c.add_host("host1");
  c.add_vm("host1", "s");
  c.add_vm("host1", "cl");
  // No namenode needed for raw netperf.
  NetperfResult r;
  c.sim().spawn(Netperf::server(c, "s", 32 * 1024, 200));
  c.run_job(Netperf::client(c, "cl", "s", 32 * 1024, 200, r));
  EXPECT_EQ(r.transactions, 200u);
  EXPECT_GT(r.rate_per_sec, 1000.0);    // sane LAN-scale RR
  EXPECT_LT(r.rate_per_sec, 1000000.0);
}

TEST(Lookbusy, ConsumesConfiguredShare) {
  ClusterConfig cfg;
  Cluster c(cfg);
  c.add_host("host1");
  c.add_lookbusy("host1", "bg", 0.85);
  Cluster::Window w = c.begin_window();
  c.sim().run_until(sim::sec(2));
  const double busy_ms = c.window_cpu_ms(w, "bg");
  EXPECT_NEAR(busy_ms, 0.85 * 2000.0, 100.0);  // 85% of one vCPU over 2 s
}

HdfsTable make_small_table(Cluster& c) {
  return create_table(c, "tbl", /*rows=*/4000, /*row_bytes=*/1024,
                      /*rows_per_file=*/1000, /*seed=*/44,
                      {{"datanode1"}, {"datanode2"}});
}

TEST(HBaseApp, ScanCoversEveryRowWithCorrectBytes) {
  Bed bed;
  Cluster& c = bed.cluster;
  HdfsTable t = make_small_table(c);
  HBaseResult r;
  c.run_job(HBasePerfEval::scan(c, "client", t, r));
  EXPECT_EQ(r.rows, t.rows);
  EXPECT_GT(r.mbps, 0.0);
  // The scan checksum is deterministic and path-independent.
  c.drop_all_caches();
  c.enable_vread();
  HBaseResult r2;
  c.run_job(HBasePerfEval::scan(c, "client", t, r2));
  EXPECT_EQ(r2.checksum, r.checksum);
}

TEST(HBaseApp, SequentialAndRandomReadsAgreeOnContent) {
  Bed bed;
  Cluster& c = bed.cluster;
  HdfsTable t = make_small_table(c);
  HBaseResult seq1, seq2, rnd1, rnd2;
  c.run_job(HBasePerfEval::sequential_read(c, "client", t, 100, seq1));
  c.run_job(HBasePerfEval::random_read(c, "client", t, 100, 77, rnd1));
  // Same operations with vRead yield identical checksums.
  c.enable_vread();
  c.drop_all_caches();
  c.run_job(HBasePerfEval::sequential_read(c, "client", t, 100, seq2));
  c.run_job(HBasePerfEval::random_read(c, "client", t, 100, 77, rnd2));
  EXPECT_EQ(seq1.checksum, seq2.checksum);
  EXPECT_EQ(rnd1.checksum, rnd2.checksum);
  EXPECT_NE(seq1.checksum, rnd1.checksum);  // different access patterns
}

TEST(TableLocate, RowAddressing) {
  HdfsTable t;
  t.rows = 1000;
  t.row_bytes = 100;
  t.rows_per_file = 300;
  auto l0 = t.locate(0);
  EXPECT_EQ(l0.file_index, 0u);
  EXPECT_EQ(l0.offset, 0u);
  auto l299 = t.locate(299);
  EXPECT_EQ(l299.file_index, 0u);
  EXPECT_EQ(l299.offset, 299u * 100);
  auto l300 = t.locate(300);
  EXPECT_EQ(l300.file_index, 1u);
  EXPECT_EQ(l300.offset, 0u);
  EXPECT_EQ(t.total_bytes(), 100'000u);
}

TEST(HiveApp, PredicateCountsExactly) {
  Bed bed;
  Cluster& c = bed.cluster;
  HdfsTable t = create_table(c, "tbl", 5000, c.costs().hive_row_bytes, 1250, 3,
                             {{"datanode1"}});
  HiveResult r;
  c.run_job(HiveQuery::select_range(c, "client", t, 100, 199, r));
  EXPECT_EQ(r.rows_scanned, 5000u);
  EXPECT_EQ(r.rows_matched, 100u);
  EXPECT_GT(r.elapsed, 0);
}

TEST(SqoopApp, ExportsEveryRow) {
  Bed bed;
  Cluster& c = bed.cluster;
  c.add_host("host3");
  c.add_vm("host3", "mysql");
  HdfsTable t = create_table(c, "tbl", 3000, c.costs().hive_row_bytes, 1500, 4,
                             {{"datanode1"}});
  SqoopResult r;
  c.sim().spawn(SqoopExport::mysql_server(c, "mysql", t.row_bytes, t.rows));
  c.run_job(SqoopExport::export_table(c, "client", t, "mysql", r));
  EXPECT_EQ(r.rows, 3000u);
  EXPECT_GT(r.elapsed, 0);
}

TEST(Elastic, DatanodeMigrationKeepsShortcutWorking) {
  Bed bed;
  Cluster& c = bed.cluster;
  c.preload_file("/m", 8 * 1024 * 1024, 9, {{"datanode1"}});
  c.enable_vread();
  c.drop_all_caches();
  DfsIoResult before;
  c.run_job(TestDfsIo::read(c, "client", "/m", 1 << 20, before));
  EXPECT_GT(c.daemon("host1")->reads(), 0u);

  core::VReadDaemon::migrate_datanode("datanode1", *c.daemon("host1"),
                                      *c.daemon("host2"),
                                      c.datanode("datanode1")->vm().disk_image());
  c.drop_all_caches();
  DfsIoResult after;
  c.run_job(TestDfsIo::read(c, "client", "/m", 1 << 20, after));
  EXPECT_EQ(after.checksum, before.checksum);
  // Served via the remote path now; still no datanode-process bytes.
  EXPECT_GT(c.daemon("host1")->remote_reads(), 0u);
  EXPECT_GT(c.daemon("host2")->reads(), 0u);
  EXPECT_EQ(c.datanode("datanode1")->bytes_served(), 0u);
}

TEST(Elastic, DirectReadModeCorrectButUncached) {
  Bed bed;
  Cluster& c = bed.cluster;
  c.preload_file("/dr", 8 * 1024 * 1024, 10, {{"datanode1"}});
  c.enable_vread(core::DaemonConfig{.direct_read = true});
  c.drop_all_caches();
  DfsIoResult r1, r2;
  c.run_job(TestDfsIo::read(c, "client", "/dr", 1 << 20, r1));
  const std::uint64_t disk_after_first = c.host("host1")->disk().bytes_read();
  c.run_job(TestDfsIo::read(c, "client", "/dr", 1 << 20, r2));
  EXPECT_EQ(r1.checksum, Buffer::deterministic(10, 0, 8 * 1024 * 1024).checksum());
  EXPECT_EQ(r2.checksum, r1.checksum);
  // No page-cache benefit: the re-read hits the device all over again.
  EXPECT_GE(c.host("host1")->disk().bytes_read(), disk_after_first * 2);
}

TEST(MultiClient, TwoClientVmsShareTheDaemon) {
  ClusterConfig cfg = fast_cfg();
  Cluster c(cfg);
  c.add_host("host1");
  c.add_vm("host1", "clientA");
  c.add_vm("host1", "clientB");
  c.create_namenode("clientA");
  c.add_datanode("host1", "datanode1");
  c.add_client("clientA");
  c.add_client("clientB");
  c.preload_file("/shared", 8 * 1024 * 1024, 12, {{"datanode1"}});
  c.enable_vread();
  c.drop_all_caches();

  DfsIoResult ra, rb;
  bool done_a = false, done_b = false;
  auto wrap = [](Cluster* cl, std::string vm, DfsIoResult* out, bool* flag) -> sim::Task {
    co_await TestDfsIo::read(*cl, vm, "/shared", 1 << 20, *out);
    *flag = true;
  };
  c.sim().spawn(wrap(&c, "clientA", &ra, &done_a));
  c.sim().spawn(wrap(&c, "clientB", &rb, &done_b));
  while (!done_a || !done_b) c.sim().run_until(c.sim().now() + sim::ms(100));
  EXPECT_EQ(ra.checksum, rb.checksum);
  EXPECT_EQ(ra.checksum, Buffer::deterministic(12, 0, 8 * 1024 * 1024).checksum());
  // Each client VM has its own channel + daemon worker.
  EXPECT_EQ(c.daemon("host1")->failed_opens(), 0u);
  EXPECT_GE(c.daemon("host1")->reads(), 16u);
}

TEST(Frequency, SweepScalesCpuBoundWork) {
  double prev = 0.0;
  for (double ghz : {1.6, 2.0, 3.2}) {
    ClusterConfig cfg = fast_cfg();
    cfg.freq_ghz = ghz;
    Cluster c(cfg);
    c.add_host("host1");
    c.add_vm("host1", "client");
    c.create_namenode("client");
    c.add_datanode("host1", "datanode1");
    c.add_client("client");
    c.preload_file("/f", 8 * 1024 * 1024, 13, {{"datanode1"}});
    // Warm read: CPU-bound, so throughput must rise with frequency.
    DfsIoResult warmup, r;
    c.run_job(TestDfsIo::read(c, "client", "/f", 1 << 20, warmup));
    c.run_job(TestDfsIo::read(c, "client", "/f", 1 << 20, r));
    EXPECT_GT(r.throughput_mbps, prev) << "at " << ghz << " GHz";
    prev = r.throughput_mbps;
  }
}

}  // namespace
}  // namespace vread::apps
